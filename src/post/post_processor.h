#ifndef SKINNER_POST_POST_PROCESSOR_H_
#define SKINNER_POST_POST_PROCESSOR_H_

#include <string>
#include <vector>

#include "engine/forced_order.h"
#include "exec/result_set.h"
#include "post/aggregates.h"

namespace skinner {

/// A materialized query result: column labels plus value rows.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<std::vector<Value>> rows;
};

/// The post-processor (paper Figure 2): turns the join result — tuple index
/// vectors — into the final result, applying projection, grouping,
/// aggregation, DISTINCT, ORDER BY and LIMIT.
Result<QueryResult> PostProcess(const PreparedQuery& pq,
                                const ResultSet& join_result);

}  // namespace skinner

#endif  // SKINNER_POST_POST_PROCESSOR_H_
