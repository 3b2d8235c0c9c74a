#ifndef SKINNER_OPTIMIZER_TRUE_CARDINALITY_H_
#define SKINNER_OPTIMIZER_TRUE_CARDINALITY_H_

#include <unordered_map>
#include <vector>

#include "engine/forced_order.h"
#include "optimizer/dp_optimizer.h"

namespace skinner {

/// Exact subset-join cardinalities, computed by actually evaluating the
/// joins over the filtered data (with memoized materialized row sets).
/// Combined with OptimizeLeftDeep this yields the paper's "Optimal" join
/// orders (Tables 3/4), i.e. optimal under the true C_out metric. Only
/// feasible at benchmark scale; `row_limit` caps materialization and maps
/// overflowing subsets to infinity.
class TrueCardinalityOracle {
 public:
  explicit TrueCardinalityOracle(const PreparedQuery* pq,
                                 uint64_t row_limit = 5'000'000);

  /// |join(set)| over the filtered tables, or +inf past the row limit.
  double Cardinality(TableSet set);

  /// SetCardFn adapter for OptimizeLeftDeep.
  SetCardFn AsFn() {
    return [this](TableSet s) { return Cardinality(s); };
  }

  /// The optimal left-deep order under exact C_out.
  PlanResult OptimalOrder();

 private:
  struct SubsetRows {
    std::vector<int> order;            // construction order of the subset
    std::vector<PosTuple> rows;        // full-width position tuples
    bool overflow = false;
  };

  const SubsetRows* Materialize(TableSet set);
  bool SubsetConnected(TableSet set) const;

  const PreparedQuery* pq_;
  uint64_t row_limit_;
  std::unordered_map<TableSet, SubsetRows> cache_;
};

}  // namespace skinner

#endif  // SKINNER_OPTIMIZER_TRUE_CARDINALITY_H_
