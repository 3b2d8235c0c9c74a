#include "skinner/skinner_h.h"

#include <algorithm>

namespace skinner {

SkinnerHEngine::SkinnerHEngine(const PreparedQuery* pq,
                               std::vector<int> optimizer_order,
                               const SkinnerHOptions& opts)
    : pq_(pq),
      optimizer_order_(std::move(optimizer_order)),
      opts_(opts),
      learner_(pq, opts.g) {}

Status SkinnerHEngine::Run(ResultSet* out) {
  VirtualClock* clock = pq_->clock();
  if (pq_->trivially_empty()) return Status::OK();

  for (uint64_t round = 0;; ++round) {
    if (clock->now() >= opts_.deadline) {
      stats_.timed_out = true;
      break;
    }
    uint64_t slice = opts_.unit << std::min<uint64_t>(round, 40);

    // Traditional optimizer plan on the remaining tuples (learning-side
    // batches removed), with timeout; partial results are discarded.
    {
      ForcedExecOptions fo;
      fo.min_pos = learner_.MinPositions();
      fo.deadline = std::min(clock->now() + slice, opts_.deadline);
      ResultSet scratch(pq_->num_tables());
      ForcedExecResult r;
      if (opts_.g.engine == GenericEngineKind::kVolcano) {
        r = ExecuteForcedOrder(*pq_, optimizer_order_, fo, &scratch);
      } else {
        BlockExecOptions bo;
        static_cast<ForcedExecOptions&>(bo) = fo;
        r = ExecuteBlock(*pq_, optimizer_order_, bo, &scratch);
      }
      ++stats_.optimizer_rounds;
      if (r.completed) {
        scratch.ForEach([out](const int32_t* tup) { out->Append(tup); });
        stats_.finished_by_optimizer = true;
        break;
      }
    }
    if (clock->now() >= opts_.deadline) {
      stats_.timed_out = true;
      break;
    }

    // Learning side gets the same amount of (virtual) time.
    bool finished = learner_.RunUntil(
        std::min(clock->now() + slice, opts_.deadline), out);
    if (finished) break;
  }
  stats_.g_stats = learner_.stats();
  if (clock->now() >= opts_.deadline && !stats_.finished_by_optimizer &&
      !learner_.finished()) {
    stats_.timed_out = true;
  }
  return Status::OK();
}

}  // namespace skinner
