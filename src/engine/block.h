#ifndef SKINNER_ENGINE_BLOCK_H_
#define SKINNER_ENGINE_BLOCK_H_

#include "engine/forced_order.h"

namespace skinner {

/// Extra knobs for the operator-at-a-time engine.
struct BlockExecOptions : ForcedExecOptions {
  /// Abort (completed=false) if any intermediate result exceeds this many
  /// tuples; models a materializing engine hitting memory pressure.
  uint64_t max_intermediate = 50'000'000;
};

/// Operator-at-a-time execution: every binary join materializes its full
/// result before the next join starts. This is the MonetDB stand-in: low
/// per-tuple cost (bulk processing earns a vectorization discount on the
/// virtual clock) but the engine pays for the *entire* intermediate result
/// of a bad join order and can only abort between tuples of a
/// materialization pass (coarse timeout granularity). The final tuples
/// are appended to `out` once the last pass completes.
ForcedExecResult ExecuteBlock(const PreparedQuery& pq,
                              const std::vector<int>& order,
                              const BlockExecOptions& opts, ResultSet* out);

}  // namespace skinner

#endif  // SKINNER_ENGINE_BLOCK_H_
