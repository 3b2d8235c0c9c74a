#ifndef SKINNER_BASELINES_REOPT_H_
#define SKINNER_BASELINES_REOPT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "engine/forced_order.h"
#include "optimizer/dp_optimizer.h"
#include "stats/estimator.h"

namespace skinner {

struct ReoptOptions {
  /// Re-plan when the actual prefix cardinality deviates from the estimate
  /// by more than this factor (in either direction).
  double threshold = 10.0;
  uint64_t deadline = UINT64_MAX;
};

struct ReoptStats {
  int replans = 0;
  bool timed_out = false;
  std::vector<int> executed_order;
};

/// Mid-query re-optimization baseline in the spirit of sampling-based query
/// re-optimization [Wu et al. 2016]: execute the optimizer's plan join by
/// join (materializing), validate the optimizer's cardinality estimate
/// against the observed cardinality after every join, and re-optimize the
/// remaining order — with the true cardinalities observed so far pinned —
/// whenever the estimate is off by more than the threshold.
class ReoptEngine {
 public:
  ReoptEngine(const PreparedQuery* pq, Estimator* estimator,
              const ReoptOptions& opts);

  Status Run(ResultSet* out);

  const ReoptStats& stats() const { return stats_; }

 private:
  PlanResult Plan(TableSet fixed_prefix, const std::vector<int>& prefix_order);

  const PreparedQuery* pq_;
  Estimator* estimator_;
  ReoptOptions opts_;
  // True cardinalities observed during execution, by table set.
  std::unordered_map<TableSet, double> observed_;
  // Estimation inputs (computed once).
  std::vector<double> table_cards_;
  std::vector<double> join_sels_;
  ReoptStats stats_;
};

}  // namespace skinner

#endif  // SKINNER_BASELINES_REOPT_H_
