#include "engine/block.h"

namespace skinner {

namespace {
/// Bulk processing discount: the block engine charges one cost unit per
/// kVectorDiscount candidate checks (tight loops over columns), but a full
/// unit per materialized intermediate tuple.
constexpr uint64_t kVectorDiscount = 4;
}  // namespace

ForcedExecResult ExecuteBlock(const PreparedQuery& pq,
                              const std::vector<int>& order,
                              const BlockExecOptions& opts, ResultSet* out) {
  ForcedExecResult res;
  const int m = static_cast<int>(order.size());
  VirtualClock* clock = pq.clock();
  JoinCursor cursor(&pq, BuildJoinSteps(pq, order));

  std::vector<int64_t> min_pos = opts.min_pos;
  if (min_pos.empty()) min_pos.assign(static_cast<size_t>(pq.num_tables()), 0);

  int64_t left_from = opts.left_from >= 0 ? opts.left_from
                                          : min_pos[static_cast<size_t>(order[0])];
  int64_t left_to = opts.left_to >= 0 ? opts.left_to : pq.cardinality(order[0]);
  left_from = std::max(left_from, min_pos[static_cast<size_t>(order[0])]);

  // Intermediate result: tuples of positions for the prefix processed so
  // far, stored full-width (unbound = -1).
  std::vector<PosTuple> current;
  uint64_t check_counter = 0;
  auto charge_check = [&]() {
    if (++check_counter % kVectorDiscount == 0) clock->Tick();
  };

  // Scan the leftmost table.
  {
    const int t0 = order[0];
    for (int64_t p = left_from; p < left_to; ++p) {
      charge_check();
      cursor.Bind(0, p);
      if (!cursor.Check(0)) continue;
      PosTuple tuple(static_cast<size_t>(pq.num_tables()), -1);
      tuple[static_cast<size_t>(t0)] = static_cast<int32_t>(p);
      current.push_back(std::move(tuple));
      ++res.intermediate_tuples;
      clock->Tick();
    }
    if (clock->now() >= opts.deadline) return res;
  }

  // One materializing join per remaining order position.
  for (int d = 1; d < m; ++d) {
    const int t = order[d];
    std::vector<PosTuple> next;
    for (const PosTuple& tuple : current) {
      // Re-bind all earlier tables for this tuple.
      for (int e = 0; e < d; ++e) {
        cursor.Bind(e, tuple[static_cast<size_t>(order[static_cast<size_t>(e)])]);
      }
      for (int64_t p = cursor.FirstCandidate(d, min_pos[static_cast<size_t>(t)]);
           p >= 0; p = cursor.NextCandidate(d, p)) {
        charge_check();
        cursor.Bind(d, p);
        if (!cursor.Check(d)) continue;
        PosTuple ext = tuple;
        ext[static_cast<size_t>(t)] = static_cast<int32_t>(p);
        next.push_back(std::move(ext));
        ++res.intermediate_tuples;
        clock->Tick();  // materialization cost
        if (next.size() > opts.max_intermediate) return res;
      }
      if (clock->now() >= opts.deadline) return res;
    }
    current = std::move(next);
    if (current.empty()) break;
  }

  res.completed = true;
  res.tuples_emitted = current.size();
  for (const PosTuple& tuple : current) out->Append(tuple);
  return res;
}

}  // namespace skinner
