#include "engine/multiway_join.h"

#include <algorithm>
#include <utility>

namespace skinner {

bool MatchEquiProbe(const PreparedQuery& pq, const Expr& e, int t,
                    EquiProbe* probe) {
  if (e.kind != ExprKind::kBinaryOp || e.bin_op != BinOp::kEq ||
      e.children[0]->kind != ExprKind::kColumnRef ||
      e.children[1]->kind != ExprKind::kColumnRef) {
    return false;
  }
  const Expr* a = e.children[0].get();
  const Expr* b = e.children[1].get();
  if (b->table_idx == t) std::swap(a, b);
  if (a->table_idx != t || b->table_idx == t) return false;
  probe->this_col = a->column_idx;
  probe->other_table = b->table_idx;
  probe->other_col = b->column_idx;
  probe->index = pq.index(t, a->column_idx);
  return true;
}

int PickDriver(const std::vector<EquiProbe>& eq) {
  int best = -1;
  for (size_t i = 0; i < eq.size(); ++i) {
    const HashIndex* idx = eq[i].index;
    if (idx == nullptr) continue;
    if (best < 0 ||
        idx->num_keys() > eq[static_cast<size_t>(best)].index->num_keys()) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::vector<JoinStep> BuildJoinSteps(const PreparedQuery& pq,
                                     const std::vector<int>& order) {
  const QueryInfo& info = pq.info();
  std::vector<JoinStep> steps;
  steps.reserve(order.size());
  TableSet prefix = 0;
  for (int t : order) {
    JoinStep step;
    step.table = t;
    TableSet with_t = prefix | TableBit(t);
    for (const PredInfo* p : info.NewlyApplicable(with_t, t)) {
      EquiProbe probe;
      if (MatchEquiProbe(pq, *p->expr, t, &probe)) {
        step.eq.push_back(probe);
      } else {
        step.checks.push_back(p->expr);
      }
    }
    step.driver = PickDriver(step.eq);
    steps.push_back(std::move(step));
    prefix = with_t;
  }
  return steps;
}

JoinCursor::JoinCursor(const PreparedQuery* pq, std::vector<JoinStep> steps)
    : pq_(pq),
      steps_(std::move(steps)),
      binding_(static_cast<size_t>(pq->num_tables()), 0),
      probe_cache_(steps_.size()),
      lookahead_(steps_.size()) {}

HashIndex::Postings JoinCursor::ProbePostings(int depth, const EquiProbe& p,
                                              uint64_t key,
                                              bool* fresh) const {
  ProbeCache& c = probe_cache_[static_cast<size_t>(depth)];
  if (c.valid && c.key == key) {
    if (fresh != nullptr) *fresh = false;
    return c.postings;
  }
  const HashIndex::Postings* la =
      lookahead_[static_cast<size_t>(depth)].Find(key);
  const HashIndex::Postings postings = la != nullptr ? *la : p.index->Find(key);
  c.valid = true;
  c.key = key;
  c.postings = postings;
  if (fresh != nullptr) *fresh = true;
  return postings;
}

void JoinCursor::BatchProbeNext(int depth, const int32_t* cand, size_t n,
                                uint64_t window_id) const {
  const size_t next = static_cast<size_t>(depth) + 1;
  if (next >= steps_.size()) return;
  const JoinStep& ns = steps_[next];
  if (ns.driver < 0) return;
  const EquiProbe& np = ns.eq[static_cast<size_t>(ns.driver)];
  if (np.other_table != steps_[static_cast<size_t>(depth)].table) return;
  Lookahead& guard = lookahead_[next];
  if (guard.window_valid && guard.window == window_id) return;
  guard.window = window_id;
  guard.window_valid = true;
  const Column& col = pq_->table(np.other_table)->column(np.other_col);
  uint64_t keys[Lookahead::kWay];
  size_t k = 0;
  for (size_t i = 0; i < n && k < Lookahead::kWay; ++i) {
    const int64_t row =
        pq_->base_row(steps_[static_cast<size_t>(depth)].table, cand[i]);
    if (col.IsNull(row)) continue;  // a NULL binding never probes
    keys[k++] = JoinKeyOf(col, row);
  }
  guard.count = 0;
  if (k == 0) return;
  HashIndex::Postings out[Lookahead::kWay];
  np.index->FindBatch(keys, k, out);
  for (size_t i = 0; i < k; ++i) guard.entries[i] = {keys[i], out[i]};
  guard.count = k;
}

uint64_t JoinCursor::ProbeKey(const EquiProbe& p, bool* is_null) const {
  const Column& col = pq_->table(p.other_table)->column(p.other_col);
  int64_t row = binding_[static_cast<size_t>(p.other_table)];
  if (col.IsNull(row)) {
    *is_null = true;
    return 0;
  }
  *is_null = false;
  return JoinKeyOf(col, row);
}

int64_t JoinCursor::FirstCandidate(int depth, int64_t lower) const {
  const JoinStep& s = steps_[static_cast<size_t>(depth)];
  int64_t card = pq_->cardinality(s.table);
  if (s.driver >= 0) {
    const EquiProbe& p = s.eq[static_cast<size_t>(s.driver)];
    bool null = false;
    uint64_t key = ProbeKey(p, &null);
    if (null) return -1;
    bool fresh = false;
    HashIndex::Postings postings = ProbePostings(depth, p, key, &fresh);
    const int32_t* it = std::lower_bound(postings.begin(), postings.end(),
                                         static_cast<int32_t>(lower));
    if (it == postings.end()) return -1;
    // A freshly fetched candidate window: batch-probe the next table's
    // driving keys over it before descending (prefetched descent). Never
    // charged — candidate enumeration does not tick the clock.
    if (fresh) {
      BatchProbeNext(depth, it, static_cast<size_t>(postings.end() - it),
                     /*window_id=*/key);
    }
    return *it;
  }
  if (lower >= card) return -1;
  if (depth + 1 < static_cast<int>(steps_.size())) {
    // Scan-driven window (leftmost table or no usable index): the
    // candidates are simply the next positions in order.
    int32_t scan[Lookahead::kWay];
    const size_t n = static_cast<size_t>(
        std::min<int64_t>(card - lower, Lookahead::kWay));
    for (size_t i = 0; i < n; ++i) {
      scan[i] = static_cast<int32_t>(lower + static_cast<int64_t>(i));
    }
    BatchProbeNext(depth, scan, n,
                   /*window_id=*/static_cast<uint64_t>(lower));
  }
  return lower;
}

int64_t JoinCursor::NextCandidate(int depth, int64_t pos) const {
  const JoinStep& s = steps_[static_cast<size_t>(depth)];
  int64_t card = pq_->cardinality(s.table);
  if (s.driver >= 0) {
    const EquiProbe& p = s.eq[static_cast<size_t>(s.driver)];
    bool null = false;
    uint64_t key = ProbeKey(p, &null);
    if (null) return -1;
    HashIndex::Postings postings = ProbePostings(depth, p, key);
    const int32_t* it = std::upper_bound(postings.begin(), postings.end(),
                                         static_cast<int32_t>(pos));
    return it == postings.end() ? -1 : *it;
  }
  const int64_t next = pos + 1;
  if (next >= card) return -1;
  // Long scans (the forced-order executor's leftmost table advances here,
  // not through FirstCandidate) refresh the lookahead at every aligned
  // window boundary: batch-probe the next table's driving keys for the
  // upcoming kWay positions. A pure accelerator — never charged, results
  // unchanged — exactly like FirstCandidate's scan-driven window.
  if (depth + 1 < static_cast<int>(steps_.size()) &&
      (next & static_cast<int64_t>(Lookahead::kWay - 1)) == 0) {
    int32_t scan[Lookahead::kWay];
    const size_t n =
        static_cast<size_t>(std::min<int64_t>(card - next, Lookahead::kWay));
    for (size_t i = 0; i < n; ++i) {
      scan[i] = static_cast<int32_t>(next + static_cast<int64_t>(i));
    }
    BatchProbeNext(depth, scan, n, /*window_id=*/static_cast<uint64_t>(next));
  }
  return next;
}

bool JoinCursor::Check(int depth) const {
  const JoinStep& s = steps_[static_cast<size_t>(depth)];
  // Equality checks beyond the driver (or all of them when scanning).
  for (size_t i = 0; i < s.eq.size(); ++i) {
    if (static_cast<int>(i) == s.driver) continue;
    const EquiProbe& p = s.eq[i];
    const Column& mine = pq_->table(s.table)->column(p.this_col);
    int64_t my_row = binding_[static_cast<size_t>(s.table)];
    if (mine.IsNull(my_row)) return false;
    bool null = false;
    uint64_t other_key = ProbeKey(p, &null);
    if (null) return false;
    if (JoinKeyOf(mine, my_row) != other_key) return false;
  }
  if (!s.checks.empty()) {
    EvalContext ctx = pq_->MakeEvalContext(binding_.data());
    if (clock_override_ != nullptr) ctx.clock = clock_override_;
    for (const Expr* e : s.checks) {
      if (!EvalPredicate(*e, ctx)) return false;
    }
  }
  return true;
}

}  // namespace skinner
