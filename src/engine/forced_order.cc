#include "engine/forced_order.h"

#include <algorithm>

namespace skinner {

// Sets up the cursor and range bounds, then drives the multiway-join step
// loop to completion under the traditional cost model (backtracks are
// free, candidate tests tick the clock, abort past the deadline).
ForcedExecResult ExecuteForcedOrder(const PreparedQuery& pq,
                                    const std::vector<int>& order,
                                    const ForcedExecOptions& opts,
                                    ResultSet* out) {
  ForcedExecResult res;
  JoinCursor cursor(&pq, BuildJoinSteps(pq, order));

  std::vector<int64_t> min_pos = opts.min_pos;
  if (min_pos.empty()) min_pos.assign(static_cast<size_t>(pq.num_tables()), 0);

  int64_t left_from = opts.left_from >= 0
                          ? opts.left_from
                          : min_pos[static_cast<size_t>(order[0])];
  int64_t left_to = opts.left_to >= 0 ? opts.left_to : pq.cardinality(order[0]);
  left_from = std::max(left_from, min_pos[static_cast<size_t>(order[0])]);

  JoinState state;
  state.depth = 0;
  state.pos.assign(order.size(), -1);
  state.pos[0] = left_from;

  MultiwayJoinSpec spec;
  spec.left_to = left_to;
  spec.lower = min_pos.data();
  spec.deadline = opts.deadline;
  spec.charge_backtrack = false;
  spec.clock = pq.clock();

  JoinLoopStats stats;
  JoinLoopExit exit = MultiwayJoinLoop(
      &cursor, order, spec, &state, &stats,
      [&](const int32_t* tuple) {
        out->Append(tuple);
        ++res.tuples_emitted;
      },
      [](int64_t) {});
  res.completed = exit == JoinLoopExit::kCompleted;
  res.intermediate_tuples = stats.intermediate_tuples;
  return res;
}

}  // namespace skinner
