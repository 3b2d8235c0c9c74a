#ifndef SKINNER_SKINNER_SKINNER_G_H_
#define SKINNER_SKINNER_SKINNER_G_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "engine/block.h"
#include "engine/forced_order.h"
#include "uct/uct.h"

namespace skinner {

/// Which black-box engine executes the per-batch joins.
enum class GenericEngineKind {
  kVolcano,  // Postgres stand-in: pipelined, tuple-at-a-time
  kBlock,    // MonetDB stand-in: operator-at-a-time, materializing
};

struct SkinnerGOptions {
  /// Number of batches b per table (paper Algorithm 1).
  int batches_per_table = 10;
  /// Cost units of the smallest timeout (level 0). Level L gets 2^L units.
  uint64_t timeout_unit = 2000;
  double uct_weight = 1.4142135623730951;
  SelectionPolicy policy = SelectionPolicy::kUct;
  GenericEngineKind engine = GenericEngineKind::kVolcano;
  uint64_t seed = 42;
  uint64_t deadline = UINT64_MAX;
};

struct SkinnerGStats {
  uint64_t iterations = 0;
  uint64_t successes = 0;
  int max_level_used = -1;
  bool timed_out = false;
  /// Cost units dedicated to each timeout level (paper Figure 3 / Lemma
  /// 5.5: levels stay within factor two of each other).
  std::vector<uint64_t> level_time;
};

/// The pyramid timeout scheme (paper Section 4.3, Figure 3): iterates over
/// power-of-two timeouts, always choosing the highest level whose
/// accumulated time does not exceed the time given to any lower level.
/// Exposed separately so its balance properties can be unit-tested
/// (Lemmas 5.4/5.5).
class PyramidTimeoutScheme {
 public:
  /// Returns the level L for the next iteration and charges 2^L to it.
  int NextLevel();
  /// Accumulated time (in units of 2^0) per level.
  const std::vector<uint64_t>& level_time() const { return n_; }

 private:
  std::vector<uint64_t> n_;
};

/// Skinner-G (paper Algorithm 1): join order learning on top of a generic
/// engine. Tables are partitioned into batches; each iteration joins one
/// batch of the leftmost table with the remaining (non-excluded) tables
/// under a pyramid-scheme timeout; rewards are 1 (batch finished) or 0;
/// one UCT tree per timeout level. Timed-out work is discarded — the
/// generic engine is a black box whose state cannot be saved.
class SkinnerGEngine {
 public:
  SkinnerGEngine(const PreparedQuery* pq, const SkinnerGOptions& opts);

  /// Runs to completion (or deadline); appends committed result tuples.
  Status Run(ResultSet* out);

  /// Runs until the virtual clock reaches `until` (for Skinner-H slices).
  /// Returns true if the query finished.
  bool RunUntil(uint64_t until, ResultSet* out);

  /// True once all batches of some table have been processed.
  bool finished() const { return finished_; }

  /// Current per-table exclusion bounds (positions below are processed);
  /// Skinner-H removes these tuples before traditional executions.
  std::vector<int64_t> MinPositions() const;

  const SkinnerGStats& stats() const { return stats_; }

 private:
  bool Step(uint64_t until, ResultSet* out);  // one iteration
  JoinOrderUct* TreeFor(int level);

  const PreparedQuery* pq_;
  SkinnerGOptions opts_;
  PyramidTimeoutScheme pyramid_;
  std::map<int, std::unique_ptr<JoinOrderUct>> trees_;  // per timeout level
  std::vector<int64_t> batch_size_;   // per table
  std::vector<int64_t> num_batches_;  // per table
  std::vector<int64_t> batches_done_; // per table (offset o in Algorithm 1)
  SkinnerGStats stats_;
  bool finished_ = false;
};

}  // namespace skinner

#endif  // SKINNER_SKINNER_SKINNER_G_H_
