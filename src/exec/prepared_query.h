#ifndef SKINNER_EXEC_PREPARED_QUERY_H_
#define SKINNER_EXEC_PREPARED_QUERY_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/hash_util.h"
#include "common/status.h"
#include "expr/eval.h"
#include "query/query_info.h"
#include "sql/binder.h"

namespace skinner {

class Scheduler;

/// Hash index over the *filtered positions* of one (table, column) pair:
/// join key -> ascending run of positions. Built during pre-processing for
/// every column that appears in an equality join predicate (paper 4.5:
/// "we create hash tables on all columns subject to equality predicates").
/// Sorted postings make Skinner-C's "jump to the next matching tuple index"
/// a single binary search, so execution state stays a plain index vector.
///
/// Layout: a flat open-addressing (linear probing) table, tag-augmented in
/// the Swiss-table style: an 8-bit tag array (0 = empty, else the key
/// hash's top 7 bits with the high bit set) split from the {key, offset,
/// len} payload slots, over a single postings arena holding every key's
/// ascending position run contiguously. The split layout keeps the probe
/// path touching one dense byte per rejected slot instead of a 16-byte
/// payload; the payload slot is read only on a tag match. Compared to a
/// node-based map of vectors this is one cache miss per probe,
/// allocation-free after Build(), and safely shareable read-only across
/// engines and worker threads.
///
/// Load factor: Build() sizes the table by the DISTINCT keys, not the
/// staged pairs: the capacity is the smallest power of two >= max(16,
/// 2 * num_keys()), so occupancy stays <= kMaxLoadPercent, probe chains
/// stay short and every probe loop is guaranteed to hit an empty tag —
/// Find() can never spin on a full table (debug builds additionally assert
/// a probe counter never exceeds the capacity). A column of 1M pairs over
/// 2,500 keys gets an 8,192-slot table, not one sized for 1M keys.
class HashIndex {
 public:
  /// Maximum occupancy enforced by Build(): capacity is at least twice the
  /// distinct key count, i.e. load <= 50%.
  static constexpr size_t kMaxLoadPercent = 50;

  /// A key's ascending position run inside the shared arena. Empty (count
  /// 0) when the key is absent.
  struct Postings {
    const int32_t* data = nullptr;
    size_t count = 0;

    const int32_t* begin() const { return data; }
    const int32_t* end() const { return data + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    int32_t operator[](size_t i) const { return data[i]; }
  };

  /// Stages one (key, position) pair. Positions for a given key must be
  /// added in ascending order (pre-processing scans positions 0..n), and
  /// all adds must precede Build() — a late Add would be silently dropped.
  void Add(uint64_t key, int32_t pos) {
    assert(!built_ && "HashIndex::Add after Build() would be dropped");
    staged_keys_.push_back(key);
    staged_pos_.push_back(pos);
  }

  /// Reserves staging for `pairs` Add() calls (an upper bound is fine:
  /// Build() releases the staging either way).
  void Reserve(size_t pairs) {
    staged_keys_.reserve(pairs);
    staged_pos_.reserve(pairs);
  }

  /// Freezes the staged pairs into the tag array + probe table + postings
  /// arena, then releases the staging. Idempotent; must be called before
  /// Find(). One sequential algorithm:
  ///  1. walk the staged stream once, inserting each new key into a table
  ///     that doubles whenever 2 * keys would exceed its capacity (the
  ///     known keys are re-inserted in first-occurrence order), recording
  ///     each pair's key id and counting pairs per key;
  ///  2. prefix-sum the run offsets in slot order;
  ///  3. scatter the positions stably, keeping every run ascending.
  /// The frozen layout equals inserting the distinct keys in
  /// first-occurrence order into a table of the final capacity: a pure
  /// function of the staged stream. Pre-processing parallelism comes only
  /// from running one index job per (table, column) concurrently.
  void Build();

  /// The ascending position run for `key` (empty if no match). A thin
  /// wrapper over the single-key scalar probe — exact pre-vectorization
  /// semantics; the batch entry point is FindBatch().
  Postings Find(uint64_t key) const {
    assert(built_ && "HashIndex::Find before Build() misses every key");
    if (slots_.empty()) return {};
    return FindHashed(key, HashMix64(key));
  }

  /// Batch probe: out[i] = Find(keys[i]) for i in [0, n). A software
  /// pipeline: hashing and tag/slot prefetching run a fixed distance ahead
  /// of resolution (overlapping the cache misses that bound single-key
  /// probe latency), each probe resolves through the same linear tag scan
  /// as Find(), and each hit's postings head is prefetched for the
  /// caller's binary-search jump. Results are bit-identical to per-key
  /// Find().
  void FindBatch(const uint64_t* keys, size_t n, Postings* out) const;

  size_t num_keys() const { return num_keys_; }
  /// Probe-table slots (0 before Build or for an empty index).
  size_t num_slots() const { return slots_.size(); }

  /// Order-sensitive hash of the frozen layout (tags, slots, arena, mask):
  /// two indexes fingerprint equal iff they are bit-identical. The
  /// thread-count bit-identity property tests and bench_preprocess compare
  /// artifacts built at different worker counts through this.
  uint64_t Fingerprint() const;

  /// Exact heap footprint. Before Build() this is dominated by the staging
  /// arrays; Build() releases them, so the frozen index accounts for
  /// exactly the tag array, the probe table and the postings arena.
  size_t bytes() const {
    return arena_.capacity() * sizeof(int32_t) +
           slots_.capacity() * sizeof(Slot) +
           tags_.capacity() * sizeof(uint8_t) +
           staged_keys_.capacity() * sizeof(uint64_t) +
           staged_pos_.capacity() * sizeof(int32_t);
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t offset = 0;
    uint32_t len = 0;  // >= 1 for every real key; the tag marks emptiness
  };

  /// 7 hash bits with the high bit set, so a present tag is never the
  /// empty sentinel (0). Drawn from the top of the mixed hash: the slot
  /// index uses the low bits, so tag and index stay independent.
  static uint8_t TagOf(uint64_t h) {
    return static_cast<uint8_t>(0x80u | (h >> 57));
  }

  /// Single-key probe with a precomputed hash. The probe sequence (linear
  /// from h & mask, wrapping through mask_) is shared by Find, FindBatch
  /// and Build()'s insertion, which is what makes the tag filter a pure
  /// accelerator with identical results.
  Postings FindHashed(uint64_t key, uint64_t h) const {
    const uint8_t tag = TagOf(h);
    size_t i = h & mask_;
#ifndef NDEBUG
    size_t probes = 0;
#endif
    while (true) {
      const uint8_t t = tags_[i];
      if (t == 0) return {};
      if (t == tag) {
        const Slot& s = slots_[i];
        if (s.key == key) return {arena_.data() + s.offset, s.len};
      }
      i = (i + 1) & mask_;
#ifndef NDEBUG
      ++probes;
      assert(probes <= slots_.size() &&
             "HashIndex::Find probed every slot: load-factor invariant "
             "broken (table over-full)");
#endif
    }
  }

  /// Re-homes the table at capacity `cap`: inserts `keys` (the distinct
  /// keys by id, i.e. in first-occurrence order) into empty slots, with
  /// Slot::offset carrying the key id until Build() turns it into the
  /// arena offset.
  void Rehash(const std::vector<uint64_t>& keys, size_t cap);

  // Staged (key, position) pairs in Add() order; released by Build().
  std::vector<uint64_t> staged_keys_;
  std::vector<int32_t> staged_pos_;
  std::vector<Slot> slots_;
  std::vector<uint8_t> tags_;  // one per slot
  std::vector<int32_t> arena_;
  size_t mask_ = 0;
  size_t num_keys_ = 0;
  bool built_ = false;
};

/// Join key of a cell, normalized so that any two equality-joinable columns
/// produce comparable keys whenever `EvalPredicate` considers the values
/// equal: strings use their dictionary code (the pool is database-wide) and
/// numeric values use the bit pattern of the value as double, with -0.0
/// canonicalized to +0.0 first (the two compare equal, so they must hash to
/// the same key or index probes silently miss matching rows).
///
/// Int64 values outside [-2^53, 2^53] are not exactly representable as
/// doubles, so distinct values could collapse onto one double bit pattern.
/// To keep int64-int64 equi-joins exact (matching Value::Compare, which
/// compares int64 pairs without promotion), such values instead take a key
/// bijectively mixed from the exact int64 bits. Two documented limits of
/// the 64-bit key space: (a) an int64 beyond 2^53 never key-matches a
/// double column, even when Value::Compare's double promotion would call
/// them equal; (b) a mixed big-int64 key can in principle collide with an
/// unrelated double bit pattern (~2^-64 per pair) — engines trust key
/// equality on the driver predicate and do not re-verify with EvalPredicate.
uint64_t JoinKeyOf(const Column& col, int64_t base_row);

/// The pre-processing artifact of ONE FROM-list table: the base rows
/// surviving its unary predicates plus hash indexes on each of its
/// equi-join columns (over the filtered positions). Immutable after
/// construction and shared by shared_ptr, so the PreparedCache can reuse
/// per-table artifacts at table granularity: a parameterized statement
/// whose `?` only filters table A re-prepares A's artifact per parameter
/// value while every other table's artifact is shared across all values.
struct TableArtifact {
  std::vector<int32_t> filtered;  // surviving base rows, ascending
  std::unordered_map<int, std::unique_ptr<HashIndex>> indexes;  // by column
  /// Virtual cost of building this artifact (filter scan + index inserts);
  /// charged only to the execution that actually built it.
  uint64_t build_cost = 0;

  /// Exact-ish heap footprint (cache accounting): filtered capacity plus
  /// every frozen index.
  size_t bytes() const;
};

/// Rows per filter-scan morsel: the unit of parallel pre-processing work.
/// Small enough that a handful of tables splits into far more morsels than
/// workers (good balance), large enough that per-morsel bookkeeping is
/// noise against evaluating predicates over 4096 rows.
constexpr int64_t kFilterMorselRows = 4096;

/// Deterministic makespan of list-scheduling `costs` (in order) onto
/// `threads` virtual workers: each task goes to the least-loaded worker
/// (ties to the lowest index); returns the maximum final load. This is the
/// virtual-cost model of parallel pre-processing: schedule-independent —
/// a pure function of the task costs and the CONFIGURED thread count, not
/// of how many pool workers actually showed up — and exactly the cost sum
/// when threads <= 1, so sequential and parallel-at-width-1 charge
/// identically.
uint64_t ListScheduleMakespan(const std::vector<uint64_t>& costs, int threads);

/// Options controlling pre-processing.
struct PrepareOptions {
  bool build_hash_indexes = true;
  /// Filter tables on multiple threads (paper Table 2/6: SkinnerDB
  /// parallelizes the pre-processing step only). Every fresh table's scan
  /// splits into kFilterMorselRows ranges, and every (table, column) index
  /// builds as its own job.
  bool parallel = false;
  /// Configured pre-processing width. The charged virtual cost is the
  /// deterministic list-scheduled makespan of the build tasks at exactly
  /// this width (ListScheduleMakespan); the ACTUAL worker count is leased
  /// from the scheduler's engine budget and may be smaller under load,
  /// changing only wall-clock time — never costs or artifacts.
  int num_threads = 4;
  /// Worker pool hosting the parallel build (common/scheduler.h); null
  /// runs it inline on the calling thread. Either way the charged costs
  /// and the artifact contents are identical — the pool only changes
  /// wall-clock time.
  Scheduler* scheduler = nullptr;
  /// Per-table artifacts to reuse instead of building (PreparedStatement /
  /// PreparedCache): when non-null and (*reuse)[t] is set, table t costs
  /// nothing and shares the given artifact; null slots build fresh. The
  /// vector must be empty or sized to the query's FROM list.
  const std::vector<std::shared_ptr<const TableArtifact>>* reuse = nullptr;
};

/// Evaluates the query's constant predicates (those touching no table) and
/// charges the evaluation to `clock`; false when one of them is false,
/// i.e. the join result is empty without looking at any data.
bool ConstantPredsHold(const QueryInfo& info,
                       const std::vector<const Table*>& tables,
                       const StringPool* pool, VirtualClock* clock);

/// Artifacts built by BuildTableArtifacts plus the virtual cost charged
/// for them.
struct TableArtifactBuild {
  std::vector<std::shared_ptr<const TableArtifact>> artifacts;  // as `ts`
  uint64_t cost = 0;
};

/// Builds the artifacts of FROM tables `ts` (paper 4.5 pre-processing):
/// each table is filtered by info.unary_preds(t), then (optionally) hash
/// indexes are built on its equality-join columns over the survivors.
/// Sequentially, the charged cost is the sum of the artifacts' build
/// costs. With opts.parallel, one filter job per (table, morsel) and one
/// index job per (table, column) run on opts.scheduler, and the charged
/// cost is the list-scheduled makespan of the filter jobs plus that of the
/// index jobs at the configured width. The artifacts are bit-identical
/// for every width and worker count. PreparedQuery::Prepare builds its
/// fresh tables through this, and so do cached prepares for the tables
/// they claimed, so both charge the same cost for the same tables.
TableArtifactBuild BuildTableArtifacts(const std::vector<const Table*>& tables,
                                       const StringPool* pool,
                                       const QueryInfo& info,
                                       const std::vector<int>& ts,
                                       const PrepareOptions& opts);

/// Output of the pre-processor (paper Figure 2): per-table lists of base
/// rows surviving the unary predicates, plus hash indexes on equi-join
/// columns over those survivors. All engines execute in "position space":
/// position p of table t refers to base row filtered_rows(t)[p].
///
/// A PreparedQuery is split along the execution/artifact boundary:
///  - PreparedQuery::Data holds the immutable pre-processing *artifacts*
///    (filtered positions + frozen hash indexes), one shared TableArtifact
///    per FROM table. Artifacts are read-only after their build,
///    thread-shareable, and held by shared_ptr so the cross-query
///    PreparedCache and concurrent batch items can reuse one build (paper
///    4.5 does this work per query; reuse makes it free on repeats).
///  - The PreparedQuery object itself is the cheap per-*execution* view:
///    data handle + query/info/pool pointers + this execution's virtual
///    clock.
class PreparedQuery {
 public:
  /// The per-table artifacts of one execution (see class comment). Two
  /// executions of one template with different parameter values typically
  /// share every artifact except the param-filtered tables'.
  struct Data {
    std::vector<const Table*> tables;
    std::vector<std::shared_ptr<const TableArtifact>> artifacts;  // per table
    bool trivially_empty = false;
    /// Virtual cost charged to the preparing execution's clock: the cost
    /// of the artifacts actually built for it (reused/cached tables and
    /// cache hits contribute nothing).
    uint64_t preprocess_cost = 0;
  };

  /// Runs pre-processing (filter + index build) for every table without a
  /// reusable artifact in opts.reuse, charges the cost to `clock`, and
  /// returns an execution view over the tables' artifacts.
  static Result<std::unique_ptr<PreparedQuery>> Prepare(
      const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
      VirtualClock* clock, const PrepareOptions& opts);

  /// The artifact handle.
  const std::shared_ptr<const Data>& shared_data() const { return data_; }

  const BoundQuery& query() const { return *query_; }
  const QueryInfo& info() const { return *info_; }
  const StringPool& pool() const { return *pool_; }
  VirtualClock* clock() const { return clock_; }
  int num_tables() const { return static_cast<int>(data_->tables.size()); }
  const Table* table(int t) const {
    return data_->tables[static_cast<size_t>(t)];
  }
  const std::vector<const Table*>& tables() const { return data_->tables; }

  /// True if a constant predicate is false or some table has no survivors:
  /// the join result is empty without running any join.
  bool trivially_empty() const { return data_->trivially_empty; }

  const std::vector<int32_t>& filtered_rows(int t) const {
    return data_->artifacts[static_cast<size_t>(t)]->filtered;
  }
  int64_t cardinality(int t) const {
    return static_cast<int64_t>(filtered_rows(t).size());
  }
  int32_t base_row(int t, int64_t pos) const {
    return filtered_rows(t)[static_cast<size_t>(pos)];
  }

  /// Index over (table, column), or nullptr if none was built.
  const HashIndex* index(int t, int col) const;

  /// Virtual cost consumed by building the underlying artifact. This is a
  /// property of the Data: executions served from the PreparedCache report
  /// 0 in their ExecutionStats instead.
  uint64_t preprocess_cost() const { return data_->preprocess_cost; }

  /// Evaluation context bound to `rows` (one base row id per table).
  EvalContext MakeEvalContext(const int64_t* rows) const {
    EvalContext ctx;
    ctx.tables = &data_->tables;
    ctx.pool = pool_;
    ctx.rows = rows;
    ctx.clock = clock_;
    return ctx;
  }

 private:
  PreparedQuery() = default;
  static std::unique_ptr<PreparedQuery> Rebind(
      const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
      VirtualClock* clock, std::shared_ptr<const Data> data);

  const BoundQuery* query_ = nullptr;
  const QueryInfo* info_ = nullptr;
  const StringPool* pool_ = nullptr;
  VirtualClock* clock_ = nullptr;
  std::shared_ptr<const Data> data_;
};

}  // namespace skinner

#endif  // SKINNER_EXEC_PREPARED_QUERY_H_
