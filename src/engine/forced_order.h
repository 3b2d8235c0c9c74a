#ifndef SKINNER_ENGINE_FORCED_ORDER_H_
#define SKINNER_ENGINE_FORCED_ORDER_H_

#include <cstdint>
#include <vector>

#include "engine/multiway_join.h"
#include "exec/result_set.h"

namespace skinner {

/// Options for executing one forced left-deep join order.
struct ForcedExecOptions {
  /// Per-table lower bound on positions (tuples below are excluded; used
  /// for Skinner-G batch removal). Empty = all zeros.
  std::vector<int64_t> min_pos;
  /// Restrict the leftmost table to positions [left_from, left_to);
  /// -1/-1 = the full (non-excluded) range.
  int64_t left_from = -1;
  int64_t left_to = -1;
  /// Absolute virtual-clock deadline; execution aborts past it.
  uint64_t deadline = UINT64_MAX;
};

struct ForcedExecResult {
  bool completed = false;
  uint64_t tuples_emitted = 0;
  /// Tuples that satisfied all predicates at every join prefix, i.e. the
  /// accumulated intermediate result cardinality (C_out) actually produced.
  /// The paper reports this as its engine-independent measure of optimizer
  /// quality (Tables 1/2, "Total Card.").
  uint64_t intermediate_tuples = 0;
};

/// Tuple-at-a-time (pipelined) execution of one forced join order, driving
/// the shared engine/multiway_join step loop to completion (or deadline)
/// and appending every result tuple to `out`. This is the "generic SQL
/// engine with forced join orders" role that Postgres plays in the paper:
/// per-tuple interpretation overhead, pipelined, abortable at tuple
/// granularity.
ForcedExecResult ExecuteForcedOrder(const PreparedQuery& pq,
                                    const std::vector<int>& order,
                                    const ForcedExecOptions& opts,
                                    ResultSet* out);

}  // namespace skinner

#endif  // SKINNER_ENGINE_FORCED_ORDER_H_
