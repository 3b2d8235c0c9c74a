#include "exec/prepared_query.h"

#include <algorithm>
#include <cstring>

#include "common/hash_util.h"
#include "common/scheduler.h"

namespace skinner {

uint64_t JoinKeyOf(const Column& col, int64_t base_row) {
  switch (col.type()) {
    case DataType::kString:
      return static_cast<uint64_t>(col.GetStringId(base_row));
    case DataType::kInt64: {
      const int64_t v = col.GetInt(base_row);
      constexpr int64_t kDoubleExactBound = int64_t{1} << 53;
      if (v < -kDoubleExactBound || v > kDoubleExactBound) {
        // The double conversion is lossy here and would collapse distinct
        // int64 keys onto one bit pattern; key on the (bijectively mixed)
        // exact bits instead. See the header contract for the remaining
        // int64-vs-double caveat.
        return HashMix64(static_cast<uint64_t>(v));
      }
      const double d = static_cast<double>(v);  // exact; v == 0 gives +0.0
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(d));
      return bits;
    }
    case DataType::kDouble: {
      double d = col.GetDouble(base_row);
      // -0.0 == +0.0 in EvalPredicate, so both must map to one key or
      // hash-index probes silently miss matching rows.
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(d));
      return bits;
    }
  }
  return 0;
}

namespace {
/// Build prefetch distance: the home slot of the key this many inserts
/// ahead is prefetched, so the cache misses of a table larger than the
/// cache overlap. Must be a power of two (ring indexing).
constexpr size_t kBuildPrefetch = 16;
}  // namespace

void HashIndex::Rehash(const std::vector<uint64_t>& keys, size_t cap) {
  std::vector<Slot>(cap).swap(slots_);
  std::vector<uint8_t>(cap, 0).swap(tags_);
  mask_ = cap - 1;
  for (size_t id = 0; id < keys.size(); ++id) {
    const uint64_t h = HashMix64(keys[id]);
    size_t i = h & mask_;
    while (tags_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = Slot{keys[id], static_cast<uint32_t>(id), 0};
    tags_[i] = TagOf(h);
  }
}

void HashIndex::Build() {
  if (built_) return;
  built_ = true;
  const size_t n = staged_keys_.size();
  if (n == 0) {
    // Nothing to index: release any reserved staging and allocate no
    // table, so an empty index holds no heap at all.
    std::vector<uint64_t>().swap(staged_keys_);
    std::vector<int32_t>().swap(staged_pos_);
    return;
  }
  static_assert(kMaxLoadPercent == 50,
                "the doubling rule below assumes the 50% load bound");
  // Pass 1: one walk over the stream. A new key doubles the table first
  // if it would push the load above 50%, so the final capacity is the
  // smallest power of two >= max(16, 2 * keys). Insertion probes linearly
  // from h & mask — the same sequence every Find path walks. Each staged
  // key is overwritten by its key id once inserted. The table is read
  // through locals: the tag stores are byte stores, which the compiler
  // must assume alias the vectors' own pointers.
  std::vector<uint64_t> keys;    // distinct keys by id (first occurrence)
  std::vector<uint32_t> counts;  // pairs per key id
  Rehash(keys, 16);
  uint8_t* tags = tags_.data();
  Slot* slots = slots_.data();
  size_t mask = mask_;
  uint64_t* staged = staged_keys_.data();
  // Hashes of the next kBuildPrefetch keys, whose home slots are already
  // prefetched (as in FindBatch).
  uint64_t ahead[kBuildPrefetch];
  for (size_t p = 0; p < n && p < kBuildPrefetch; ++p) {
    ahead[p] = HashMix64(staged[p]);
  }
  for (size_t p = 0; p < n; ++p) {
    const uint64_t h = ahead[p & (kBuildPrefetch - 1)];
    if (p + kBuildPrefetch < n) {
      const uint64_t ha = HashMix64(staged[p + kBuildPrefetch]);
      ahead[p & (kBuildPrefetch - 1)] = ha;
      __builtin_prefetch(tags + (ha & mask), 1, 1);
      __builtin_prefetch(slots + (ha & mask), 1, 1);
    }
    const uint64_t key = staged[p];
    const uint8_t tag = TagOf(h);
    size_t i = h & mask;
    while (tags[i] != 0 && (tags[i] != tag || slots[i].key != key)) {
      i = (i + 1) & mask;
    }
    if (tags[i] == 0) {
      if (2 * (keys.size() + 1) > mask + 1) {
        Rehash(keys, 2 * (mask + 1));
        tags = tags_.data();
        slots = slots_.data();
        mask = mask_;
        i = h & mask;
        while (tags[i] != 0) i = (i + 1) & mask;
      }
      slots[i] = Slot{key, static_cast<uint32_t>(keys.size()), 0};
      tags[i] = tag;
      keys.push_back(key);
      counts.push_back(0);
    }
    const uint32_t id = slots[i].offset;
    ++counts[id];
    staged[p] = id;
  }
  num_keys_ = keys.size();
  // Pass 2: run lengths and arena offsets (prefix sum in slot order);
  // counts becomes the scatter cursor of each key id. Branch-free, since
  // slot occupancy is random: an empty slot (tag 0) carries key id 0,
  // rewrites cursor[0] with its own value, and keeps offset and len 0.
  uint32_t* cursor = counts.data();
  uint32_t offset = 0;
  for (size_t i = 0; i <= mask; ++i) {
    const uint32_t used = 0u - static_cast<uint32_t>(tags[i] != 0);
    const uint32_t id = slots[i].offset;
    const uint32_t len = cursor[id] & used;
    cursor[id] = (offset & used) | (cursor[id] & ~used);
    slots[i].len = len;
    slots[i].offset = offset & used;
    offset += len;
  }
  // Pass 3: scatter positions; insertion order per key is ascending, and a
  // stable scatter preserves it, keeping every run sorted.
  arena_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    arena_[cursor[staged[p]]++] = staged_pos_[p];
  }
  std::vector<uint64_t>().swap(staged_keys_);
  std::vector<int32_t>().swap(staged_pos_);
#ifndef NDEBUG
  // Swiss-table invariants: the load bound, tag/payload agreement, and
  // chain reachability (every occupied slot is reachable from its key's
  // home slot over occupied slots only, or Find() would stop at an empty
  // tag and miss it).
  assert(num_keys_ * 2 <= slots_.size() && "HashIndex load factor above 50%");
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (tags_[i] == 0) {
      assert(slots_[i].len == 0 && "empty tag over an occupied slot");
      continue;
    }
    const uint64_t h = HashMix64(slots_[i].key);
    assert(tags_[i] == TagOf(h) && "tag does not match the slot key");
    for (size_t j = h & mask_; j != i; j = (j + 1) & mask_) {
      assert(tags_[j] != 0 && "probe chain crosses an empty slot");
    }
  }
#endif
}

uint64_t HashIndex::Fingerprint() const {
  assert(built_ && "Fingerprint before Build() is meaningless");
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(mask_);
  const auto mix = [&h](uint64_t v) { h = HashMix64(h ^ v); };
  mix(num_keys_);
  mix(slots_.size());
  mix(arena_.size());
  for (const Slot& s : slots_) {
    mix(s.key);
    mix((static_cast<uint64_t>(s.offset) << 32) | s.len);
  }
  for (const int32_t v : arena_) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(v)));
  }
  // Tags are derived from the slots, but hash them anyway: the probe path
  // reads them, so a corrupt tag array must not fingerprint as identical.
  for (const uint8_t t : tags_) mix(t);
  return h;
}

namespace {
/// Batch-kernel prefetch distance: hashing + tag/slot prefetching runs
/// this many probes ahead of resolution, so by the time probe i resolves,
/// its (random, usually cold) tag and payload lines have had a full
/// pipeline's worth of work to arrive. A grouped prefetch-then-resolve
/// scheme stalls at every group boundary — the first resolution starts
/// one cycle after its own prefetch; the steady-state pipeline never
/// does. This memory-level parallelism, not instruction count, is what
/// makes the batch path several times faster than looped Find() on
/// cache-cold tables. Must be a power of two (ring indexing).
constexpr size_t kPrefetchDist = 32;
}  // namespace

void HashIndex::FindBatch(const uint64_t* keys, size_t n,
                          Postings* out) const {
  assert(built_ && "HashIndex::FindBatch before Build() misses every key");
  if (slots_.empty()) {
    for (size_t i = 0; i < n; ++i) out[i] = {};
    return;
  }
  // Cache-line aligned: left at whatever stack offset the frame gives it,
  // the ring measured about a quarter slower on bench_probe (x86-64).
  alignas(64) uint64_t hashes[kPrefetchDist];
  const size_t lead = n < kPrefetchDist ? n : kPrefetchDist;
  for (size_t i = 0; i < lead; ++i) {
    const uint64_t h = HashMix64(keys[i]);
    hashes[i] = h;
    const size_t s = h & mask_;
    __builtin_prefetch(tags_.data() + s, 0, 1);
    __builtin_prefetch(slots_.data() + s, 0, 1);
  }
  for (size_t i = 0; i < n; ++i) {
    // Read the current probe's hash BEFORE the ahead-write: slot i of the
    // ring is exactly the slot probe i + kPrefetchDist re-fills.
    const uint64_t h = hashes[i & (kPrefetchDist - 1)];
    const size_t ahead = i + kPrefetchDist;
    if (ahead < n) {
      const uint64_t ha = HashMix64(keys[ahead]);
      hashes[ahead & (kPrefetchDist - 1)] = ha;
      const size_t s = ha & mask_;
      __builtin_prefetch(tags_.data() + s, 0, 1);
      __builtin_prefetch(slots_.data() + s, 0, 1);
    }
    const Postings p = FindHashed(keys[i], h);
    // Prefetch the postings head for the caller's binary-search jump.
    if (p.data != nullptr) __builtin_prefetch(p.data, 0, 1);
    out[i] = p;
  }
}

namespace {

/// Filters rows [begin, end) of one table by its unary predicates; returns
/// the surviving base rows (ascending) and the cost units spent. One morsel
/// of the (possibly parallel) filter scan. Costs are count-based — one unit
/// per row plus predicate-evaluation ticks — so the morsel costs of a table
/// sum to exactly what one sequential whole-table scan charges, regardless
/// of how the range was split.
std::pair<std::vector<int32_t>, uint64_t> FilterMorsel(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const std::vector<const Expr*>& preds, int t, int64_t begin, int64_t end) {
  std::vector<int32_t> rows;
  uint64_t cost = 0;
  rows.reserve(static_cast<size_t>(end - begin));
  std::vector<int64_t> binding(tables.size(), 0);
  // Use a local clock so parallel filtering does not race on the shared one.
  VirtualClock local;
  EvalContext ctx;
  ctx.tables = &tables;
  ctx.pool = pool;
  ctx.rows = binding.data();
  ctx.clock = &local;
  // Deleted rows are filtered out here — every downstream consumer (join
  // engines, indexes) sees artifact positions only. `masked` is hoisted so
  // a fully-valid table takes the exact pre-mutation path and cost.
  const Table* tab = tables[static_cast<size_t>(t)];
  const bool masked = tab->has_deletes();
  for (int64_t r = begin; r < end; ++r) {
    ++cost;
    if (masked && !tab->IsRowValid(r)) continue;
    binding[static_cast<size_t>(t)] = r;
    bool pass = true;
    for (const Expr* p : preds) {
      if (!EvalPredicate(*p, ctx)) {
        pass = false;
        break;
      }
    }
    if (pass) rows.push_back(static_cast<int32_t>(r));
  }
  return {std::move(rows), cost + local.now()};
}

/// Filters one whole table (the sequential path: a single morsel).
std::pair<std::vector<int32_t>, uint64_t> FilterTable(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const std::vector<const Expr*>& preds, int t) {
  return FilterMorsel(tables, pool, preds, t,  0,
                      tables[static_cast<size_t>(t)]->num_rows());
}

/// Ascending, deduplicated equality-join columns of table `t` — the
/// columns the paper indexes ("we create hash tables on all columns
/// subject to equality predicates").
std::vector<int> EquiJoinColumns(const QueryInfo& info, int t) {
  std::vector<int> cols;
  for (const EquiJoinPred& ep : info.equi_preds()) {
    if (ep.left_table == t) cols.push_back(ep.left_col);
    if (ep.right_table == t) cols.push_back(ep.right_col);
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

/// Builds the frozen index of one (table, column) pair over the filtered
/// positions; returns it with the virtual cost of the inserts (one unit
/// per non-NULL pair). The unit of parallelism for pre-processing index
/// builds: concurrent jobs each stage into their own HashIndex.
std::pair<std::unique_ptr<HashIndex>, uint64_t> BuildColumnIndex(
    const std::vector<const Table*>& tables, int t, int col,
    const std::vector<int32_t>& filtered) {
  auto index = std::make_unique<HashIndex>();
  index->Reserve(filtered.size());
  uint64_t cost = 0;
  const Column& c = tables[static_cast<size_t>(t)]->column(col);
  for (size_t p = 0; p < filtered.size(); ++p) {
    if (c.IsNull(filtered[p])) continue;  // NULL never equi-joins
    index->Add(JoinKeyOf(c, filtered[p]), static_cast<int32_t>(p));
    ++cost;
  }
  index->Build();
  return {std::move(index), cost};
}

/// Builds the artifact of table `t` for the analyzed query on the calling
/// thread: filters by info.unary_preds(t), then (optionally) builds a hash
/// index on each of t's equality-join columns over the survivors.
std::shared_ptr<const TableArtifact> BuildTableArtifact(
    const std::vector<const Table*>& tables, const StringPool* pool,
    const QueryInfo& info, int t, bool build_hash_indexes) {
  auto artifact = std::make_shared<TableArtifact>();
  auto [rows, cost] = FilterTable(tables, pool, info.unary_preds(t), t);
  artifact->filtered = std::move(rows);
  artifact->build_cost = cost;
  // Hash indexes on each of t's equality-join columns, over the filtered
  // positions only ("only tuples satisfying all unary predicates are
  // hashed"). Built per table so the artifact is self-contained and
  // reusable regardless of what happens to the query's other tables.
  if (build_hash_indexes && !artifact->filtered.empty()) {
    for (int col : EquiJoinColumns(info, t)) {
      auto [index, cost] = BuildColumnIndex(tables, t, col, artifact->filtered);
      artifact->build_cost += cost;
      artifact->indexes.emplace(col, std::move(index));
    }
  }
  return artifact;
}

}  // namespace

size_t TableArtifact::bytes() const {
  size_t b = sizeof(TableArtifact) + filtered.capacity() * sizeof(int32_t);
  for (const auto& [col, index] : indexes) {
    (void)col;
    b += sizeof(HashIndex) + index->bytes();
  }
  return b;
}

uint64_t ListScheduleMakespan(const std::vector<uint64_t>& costs,
                              int threads) {
  const size_t width = static_cast<size_t>(threads < 1 ? 1 : threads);
  if (width <= 1) {
    uint64_t sum = 0;
    for (const uint64_t c : costs) sum += c;
    return sum;
  }
  // Greedy list scheduling: each task, in order, lands on the least-loaded
  // virtual worker (ties to the lowest index). Deterministic in the task
  // order and width alone — never in the real pool's timing.
  std::vector<uint64_t> load(width < costs.size() ? width : costs.size(), 0);
  if (load.empty()) return 0;
  for (const uint64_t c : costs) {
    size_t best = 0;
    for (size_t w = 1; w < load.size(); ++w) {
      if (load[w] < load[best]) best = w;
    }
    load[best] += c;
  }
  uint64_t makespan = 0;
  for (const uint64_t l : load) makespan = std::max(makespan, l);
  return makespan;
}

bool ConstantPredsHold(const QueryInfo& info,
                       const std::vector<const Table*>& tables,
                       const StringPool* pool, VirtualClock* clock) {
  std::vector<int64_t> binding(tables.size(), 0);
  EvalContext ctx;
  ctx.tables = &tables;
  ctx.pool = pool;
  ctx.rows = binding.data();
  ctx.clock = clock;
  for (const PredInfo& p : info.constant_preds()) {
    if (!EvalPredicate(*p.expr, ctx)) return false;
  }
  return true;
}

TableArtifactBuild BuildTableArtifacts(const std::vector<const Table*>& tables,
                                       const StringPool* pool,
                                       const QueryInfo& info,
                                       const std::vector<int>& ts,
                                       const PrepareOptions& opts) {
  TableArtifactBuild out;
  if (!opts.parallel || ts.empty()) {
    for (int t : ts) {
      out.artifacts.push_back(
          BuildTableArtifact(tables, pool, info, t, opts.build_hash_indexes));
      out.cost += out.artifacts.back()->build_cost;
    }
    return out;
  }
  // Execution width is leased from the scheduler's engine budget (under
  // concurrent sessions a build degrades to fewer workers); the charged
  // cost below stays pinned to the CONFIGURED width, so costs never
  // depend on who else was running.
  ThreadLease lease;
  int width = std::max(opts.num_threads, 1);
  if (opts.scheduler != nullptr && opts.num_threads > 1) {
    lease = opts.scheduler->LeaseThreads(opts.num_threads);
    width = std::max(1, lease.granted());
  }
  // Phase A: one job per (table, morsel) across EVERY table to build, so a
  // lone large table still splits and small tables cannot straggle.
  struct FilterJob {
    size_t slot;  // index into `ts`
    int64_t begin;
    int64_t end;
    std::vector<int32_t> rows;
    uint64_t cost = 0;
  };
  std::vector<FilterJob> jobs;
  std::vector<std::shared_ptr<TableArtifact>> built(ts.size());
  int64_t total_rows = 0;
  for (size_t slot = 0; slot < ts.size(); ++slot) {
    built[slot] = std::make_shared<TableArtifact>();
    const int64_t n = tables[static_cast<size_t>(ts[slot])]->num_rows();
    total_rows += n;
    for (int64_t b = 0; b < n; b += kFilterMorselRows) {
      jobs.push_back(
          FilterJob{slot, b, std::min(n, b + kFilterMorselRows), {}, 0});
    }
  }
  // When the whole workload is under one morsel of rows, dispatching it
  // would cost more than scanning it: run every job on this thread.
  const size_t filter_grain =
      total_rows <= kFilterMorselRows ? jobs.size() : size_t{1};
  SchedParallelFor(
      opts.scheduler, jobs.size(), width,
      [&](size_t i) {
        FilterJob& job = jobs[i];
        const int t = ts[job.slot];
        auto [rows, cost] = FilterMorsel(tables, pool, info.unary_preds(t), t,
                                         job.begin, job.end);
        job.rows = std::move(rows);
        job.cost = cost;
      },
      filter_grain);
  // Concatenate in (table, range) order — bit-identical to sequential
  // scans — and collect per-morsel costs for the makespan model.
  std::vector<uint64_t> filter_costs;
  filter_costs.reserve(jobs.size());
  for (FilterJob& job : jobs) {
    TableArtifact& a = *built[job.slot];
    a.filtered.insert(a.filtered.end(), job.rows.begin(), job.rows.end());
    a.build_cost += job.cost;
    filter_costs.push_back(job.cost);
  }
  // Phase B: one job per (table, column) index, so a single wide table
  // cannot serialize the build and each worker stages into its own
  // HashIndex. Each Build() itself is sequential.
  struct IndexJob {
    size_t slot;
    int col;
    std::unique_ptr<HashIndex> index;
    uint64_t cost = 0;
  };
  std::vector<IndexJob> ijobs;
  if (opts.build_hash_indexes) {
    for (size_t slot = 0; slot < ts.size(); ++slot) {
      if (built[slot]->filtered.empty()) continue;
      for (int col : EquiJoinColumns(info, ts[slot])) {
        ijobs.push_back(IndexJob{slot, col, nullptr, 0});
      }
    }
  }
  SchedParallelFor(
      opts.scheduler, ijobs.size(), width,
      [&](size_t i) {
        IndexJob& job = ijobs[i];
        auto [index, cost] = BuildColumnIndex(tables, ts[job.slot], job.col,
                                              built[job.slot]->filtered);
        job.index = std::move(index);
        job.cost = cost;
      },
      /*min_grain=*/1);
  // Attach sequentially — unordered_map insertion is not thread-safe.
  // Cost totals are count-based and schedule-independent, so the values
  // match the sequential path exactly.
  std::vector<uint64_t> index_costs;
  index_costs.reserve(ijobs.size());
  for (IndexJob& job : ijobs) {
    TableArtifact& a = *built[job.slot];
    a.build_cost += job.cost;
    a.indexes.emplace(job.col, std::move(job.index));
    index_costs.push_back(job.cost);
  }
  out.artifacts.assign(built.begin(), built.end());
  // Parallel cost model: the deterministic list-scheduled makespan of the
  // filter morsels plus that of the index jobs, at the CONFIGURED width.
  // At num_threads <= 1 each makespan is exactly the cost sum, so the
  // parallel path charges precisely what the sequential path would.
  out.cost = ListScheduleMakespan(filter_costs, opts.num_threads) +
             ListScheduleMakespan(index_costs, opts.num_threads);
  return out;
}

const HashIndex* PreparedQuery::index(int t, int col) const {
  const auto& indexes = data_->artifacts[static_cast<size_t>(t)]->indexes;
  auto it = indexes.find(col);
  return it == indexes.end() ? nullptr : it->second.get();
}

std::unique_ptr<PreparedQuery> PreparedQuery::Rebind(
    const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
    VirtualClock* clock, std::shared_ptr<const Data> data) {
  auto pq = std::unique_ptr<PreparedQuery>(new PreparedQuery());
  pq->query_ = query;
  pq->info_ = info;
  pq->pool_ = pool;
  pq->clock_ = clock;
  pq->data_ = std::move(data);
  return pq;
}

Result<std::unique_ptr<PreparedQuery>> PreparedQuery::Prepare(
    const BoundQuery* query, const QueryInfo* info, const StringPool* pool,
    VirtualClock* clock, const PrepareOptions& opts) {
  auto data = std::make_shared<Data>();
  data->tables = query->TablePtrs();
  const int m = static_cast<int>(data->tables.size());
  data->artifacts.resize(static_cast<size_t>(m));
  const bool have_reuse = opts.reuse != nullptr && !opts.reuse->empty();
  assert(!have_reuse || opts.reuse->size() == static_cast<size_t>(m));

  // Constant predicates decide emptiness without touching data. Their
  // (typically negligible) evaluation cost counts as pre-processing; it is
  // re-evaluated per execution because a parameterized constant predicate
  // changes with the bound values while the per-table artifacts do not.
  VirtualClock local;
  const bool empty = !ConstantPredsHold(*info, data->tables, pool, &local);
  data->preprocess_cost += local.now();
  if (empty) {
    data->trivially_empty = true;
    // Engines never run on a trivially empty query, but accessors must
    // stay safe: every table gets one shared empty artifact.
    static const std::shared_ptr<const TableArtifact> kEmpty =
        std::make_shared<TableArtifact>();
    for (int t = 0; t < m; ++t) {
      data->artifacts[static_cast<size_t>(t)] =
          have_reuse && (*opts.reuse)[static_cast<size_t>(t)] != nullptr
              ? (*opts.reuse)[static_cast<size_t>(t)]
              : kEmpty;
    }
    clock->Tick(data->preprocess_cost);
    return Rebind(query, info, pool, clock, std::move(data));
  }

  // Per-table artifacts (filter + that table's equi-join indexes), built
  // only where no reusable artifact was supplied; optionally parallel
  // (paper: pre-processing is the one parallelized phase of Skinner-C).
  std::vector<int> fresh;
  fresh.reserve(static_cast<size_t>(m));
  for (int t = 0; t < m; ++t) {
    if (have_reuse && (*opts.reuse)[static_cast<size_t>(t)] != nullptr) {
      data->artifacts[static_cast<size_t>(t)] =
          (*opts.reuse)[static_cast<size_t>(t)];
    } else {
      fresh.push_back(t);
    }
  }
  TableArtifactBuild build =
      BuildTableArtifacts(data->tables, pool, *info, fresh, opts);
  for (size_t i = 0; i < fresh.size(); ++i) {
    data->artifacts[static_cast<size_t>(fresh[i])] =
        std::move(build.artifacts[i]);
  }
  data->preprocess_cost += build.cost;
  for (int t = 0; t < m; ++t) {
    if (data->artifacts[static_cast<size_t>(t)]->filtered.empty()) {
      data->trivially_empty = true;
    }
  }
  clock->Tick(data->preprocess_cost);
  return Rebind(query, info, pool, clock, std::move(data));
}

}  // namespace skinner
