#ifndef SKINNER_BASELINES_EDDY_H_
#define SKINNER_BASELINES_EDDY_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "engine/forced_order.h"

namespace skinner {

struct EddyOptions {
  /// Exploration rate of the per-tuple routing policy.
  double epsilon = 0.1;
  uint64_t seed = 42;
  uint64_t deadline = UINT64_MAX;
};

struct EddyStats {
  uint64_t routed_tuples = 0;     // partial tuples routed
  uint64_t candidate_checks = 0;  // per-extension predicate work
  bool timed_out = false;
};

/// Adaptive per-tuple routing baseline in the spirit of Eddies
/// [Avnur & Hellerstein 2000] with a reinforcement-learning routing policy
/// [Tzoumas et al. 2008], re-implemented as in the paper's appendix. Base
/// tuples of a driver table stream into the eddy; each partial tuple is
/// routed to a next join chosen by learned per-operator fan-out estimates
/// (epsilon-greedy). Two properties distinguish it from Skinner and drive
/// its behaviour in the torture benchmarks: routing decisions are made and
/// paid *per tuple*, and intermediate tuples, once produced by a bad early
/// routing choice, are never discarded — all of them must be processed.
class EddyEngine {
 public:
  EddyEngine(const PreparedQuery* pq, const EddyOptions& opts);

  Status Run(ResultSet* out);

  const EddyStats& stats() const { return stats_; }

 private:
  struct Partial {
    PosTuple pos;
    TableSet mask;
  };

  /// Picks the next table for a partial tuple with bound set `mask`.
  int Route(TableSet mask);

  /// Extends `partial` with every matching tuple of `t`, pushing results.
  void Extend(const Partial& partial, int t, std::vector<Partial>* work,
              ResultSet* out);

  const PreparedQuery* pq_;
  EddyOptions opts_;
  Rng rng_;
  // Per-table learned routing statistics (observed fan-out).
  std::vector<uint64_t> op_inputs_;
  std::vector<uint64_t> op_outputs_;
  EddyStats stats_;
};

}  // namespace skinner

#endif  // SKINNER_BASELINES_EDDY_H_
