#include "api/query_pipeline.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/scheduler.h"
#include "optimizer/dp_optimizer.h"

namespace skinner {

QueryPipeline::QueryPipeline(Catalog* catalog, const UdfRegistry* udfs,
                             StatsManager* stats, PreparedCache* cache,
                             Scheduler* scheduler)
    : catalog_(catalog),
      udfs_(udfs),
      stats_(stats),
      cache_(cache),
      scheduler_(scheduler) {}

Result<Statement> QueryPipeline::Parse(const std::string& sql) const {
  SKINNER_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  return stmt;
}

Result<BoundStage> QueryPipeline::Bind(Statement stmt) const {
  if (stmt.kind != Statement::Kind::kSelect || stmt.select == nullptr) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  BoundStage stage;
  stage.query = std::make_unique<BoundQuery>();
  SKINNER_ASSIGN_OR_RETURN(*stage.query,
                           BindSelect(stmt.select.get(), catalog_, udfs_));
  return stage;
}

namespace {

Status RejectParams(const BoundQuery& query) {
  if (query.num_params == 0) return Status::OK();
  return Status::InvalidArgument(
      "query contains ? parameters; prepare it with Session::Prepare and "
      "execute it with bound values");
}

}  // namespace

PrepareOptions QueryPipeline::MakePrepareOptions(
    const ExecOptions& opts) const {
  PrepareOptions popts;
  popts.build_hash_indexes = opts.build_hash_indexes;
  popts.parallel = opts.parallel_preprocess;
  popts.num_threads = opts.num_threads;
  popts.scheduler = EffectiveScheduler(opts);
  return popts;
}

Result<PreparedStage> QueryPipeline::PrepareFresh(
    std::unique_ptr<BoundQuery> owned_query, const BoundQuery* query,
    const ExecOptions& opts) const {
  PreparedStage stage;
  stage.bound = std::move(owned_query);
  if (stage.bound != nullptr) query = stage.bound.get();
  stage.clock = std::make_unique<VirtualClock>();
  SKINNER_ASSIGN_OR_RETURN(QueryInfo info, QueryInfo::Analyze(*query));
  stage.info = std::make_unique<QueryInfo>(std::move(info));
  SKINNER_ASSIGN_OR_RETURN(
      stage.pq,
      PreparedQuery::Prepare(query, stage.info.get(), catalog_->string_pool(),
                             stage.clock.get(), MakePrepareOptions(opts)));
  stage.preprocess_cost = stage.pq->preprocess_cost();
  return stage;
}

Result<PreparedStage> QueryPipeline::Prepare(BoundStage bound,
                                             const ExecOptions& opts) const {
  SKINNER_RETURN_IF_ERROR(RejectParams(*bound.query));
  if (!opts.use_prepared_cache || cache_ == nullptr) {
    return PrepareFresh(std::move(bound.query), /*query=*/nullptr, opts);
  }
  PreparedStage stage;
  stage.bound = std::move(bound.query);
  stage.signature = bound.template_signature.empty()
                        ? ComputeQuerySignature(*stage.bound)
                        : std::move(bound.template_signature);
  stage.clock = std::make_unique<VirtualClock>();
  SKINNER_ASSIGN_OR_RETURN(QueryInfo info, QueryInfo::Analyze(*stage.bound));
  stage.info = std::make_unique<QueryInfo>(std::move(info));

  // Per-table artifacts through the cache, following its claim-all
  // protocol: try-acquire every table's claim up front (never blocking),
  // build and publish every owned claim, and only then wait on other
  // executions' in-flight builds. Deadlock-free because no execution ever
  // blocks while holding an unpublished claim, and concurrent because an
  // m-table join's artifacts build together instead of one at a time.
  const int m = stage.bound->num_tables();
  bound.table_param_values.resize(static_cast<size_t>(m));  // literal: all ""
  const std::vector<const Table*> tables = stage.bound->TablePtrs();
  const StringPool* pool = catalog_->string_pool();
  PrepareOptions popts = MakePrepareOptions(opts);
  std::vector<std::shared_ptr<const TableArtifact>> reuse(
      static_cast<size_t>(m));
  struct Claim {
    std::string key;
    TableStamp stamp;
    std::shared_ptr<void> pending;  // another execution's in-flight token
  };
  std::vector<Claim> claims(static_cast<size_t>(m));
  std::vector<int> owned;  // tables this execution builds
  uint64_t built_cost = 0;
  // A false constant predicate (possibly through a bound value: `? = 1`)
  // makes the whole query trivially empty; claim nothing and let
  // PreparedQuery::Prepare take its data-free early exit, like the
  // uncached path, which never scans a table for it either. The probe's
  // cost is not charged; Prepare re-evaluates and charges it.
  VirtualClock probe_clock;
  if (ConstantPredsHold(*stage.info, tables, pool, &probe_clock)) {
    for (int t = 0; t < m; ++t) {
      const size_t i = static_cast<size_t>(t);
      Claim& c = claims[i];
      c.key = TableArtifactKey(stage.signature, t, opts.build_hash_indexes,
                               bound.table_param_values[i]);
      c.stamp = TableStamp{tables[i]->id(), tables[i]->data_version()};
      if (opts.cache_read_only) {
        // Quota-throttled: serve hits, build misses privately, publish
        // nothing (no shared-budget bytes charged to this session).
        reuse[i] = cache_->LookupTable(c.key, c.stamp);
      } else {
        PreparedCache::TableTryClaim claim =
            cache_->TryAcquireTable(c.key, c.stamp);
        reuse[i] = std::move(claim.artifact);
        c.pending = std::move(claim.pending);
      }
      if (reuse[i] != nullptr) {
        ++stage.tables_from_cache;
      } else if (c.pending == nullptr) {
        owned.push_back(t);
      }
    }
  }
  const auto build = [&](const std::vector<int>& ts) {
    TableArtifactBuild b =
        BuildTableArtifacts(tables, pool, *stage.info, ts, popts);
    built_cost += b.cost;
    for (size_t i = 0; i < ts.size(); ++i) {
      const Claim& c = claims[static_cast<size_t>(ts[i])];
      if (!opts.cache_read_only) {
        cache_->PublishTable(c.key, c.stamp, b.artifacts[i]);
        stage.cache_bytes_published += b.artifacts[i]->bytes();
      }
      reuse[static_cast<size_t>(ts[i])] = std::move(b.artifacts[i]);
      ++stage.tables_reprepared;
    }
  };
  build(owned);
  // Redeem the in-flight tokens. Safe to block now — all our claims are
  // published. A wait can still hand back builder=true (the other
  // execution abandoned, or republished under different stamps); build
  // and publish that table here then.
  for (int t = 0; t < m; ++t) {
    Claim& c = claims[static_cast<size_t>(t)];
    if (c.pending == nullptr) continue;
    PreparedCache::TableClaim claim =
        cache_->WaitTable(c.key, c.stamp, c.pending);
    if (claim.builder) {
      build({t});
    } else {
      reuse[static_cast<size_t>(t)] = std::move(claim.artifact);
      ++stage.tables_from_cache;
    }
  }

  popts.reuse = &reuse;
  SKINNER_ASSIGN_OR_RETURN(
      stage.pq, PreparedQuery::Prepare(stage.bound.get(), stage.info.get(),
                                       pool, stage.clock.get(), popts));
  // The clock so far carries the constant-predicate evaluation only (all
  // artifacts were passed in); charge this execution for the tables it
  // actually built.
  stage.clock->Tick(built_cost);
  stage.preprocess_cost = stage.clock->now();
  stage.cache_hit = stage.tables_from_cache == m;
  // A previous (possibly since invalidated) execution of the template may
  // have left a useful join order behind.
  std::vector<int> warm = cache_->WarmOrder(stage.signature);
  stage.template_hit = !warm.empty();
  if (opts.warm_start) stage.warm_order = std::move(warm);
  return stage;
}

Result<PreparedStage> QueryPipeline::PrepareExternal(
    const BoundQuery* query, const ExecOptions& opts) const {
  SKINNER_RETURN_IF_ERROR(RejectParams(*query));
  return PrepareFresh(nullptr, query, opts);
}

Result<ExecutedStage> QueryPipeline::Execute(const PreparedStage& prep,
                                             const ExecOptions& opts) const {
  const PreparedQuery* pq = prep.pq.get();
  ExecutedStage out;
  out.join_result = std::make_unique<ResultSet>(pq->num_tables());
  ResultSet& join_result = *out.join_result;
  if (pq->trivially_empty()) return out;

  switch (opts.engine) {
    case EngineKind::kSkinnerC:
    case EngineKind::kRandomOrder: {
      SkinnerCOptions so;
      so.slice_budget = opts.slice_budget;
      so.uct_weight = opts.uct_weight_c;
      so.policy = opts.engine == EngineKind::kRandomOrder
                      ? SelectionPolicy::kRandom
                      : SelectionPolicy::kUct;
      so.reward = opts.reward;
      so.seed = opts.seed;
      so.deadline = opts.deadline;
      so.collect_trace = opts.collect_trace;
      so.num_threads = opts.skinner_threads;
      so.parallel_mode = opts.skinner_parallel_mode;
      so.scheduler = EffectiveScheduler(opts);
      so.warm_start_order = prep.warm_order;
      SkinnerCEngine engine(pq, so);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      const SkinnerCStats& s = engine.stats();
      out.stats.slices = s.slices;
      out.stats.intermediate_tuples = s.intermediate_tuples;
      out.stats.uct_nodes = s.uct_nodes;
      out.stats.progress_nodes = s.progress_nodes;
      out.stats.auxiliary_bytes = s.auxiliary_bytes;
      out.stats.chunk_splits = s.chunk_splits;
      out.stats.timed_out = s.timed_out;
      out.stats.join_order = s.final_order;
      out.stats.tree_growth = s.tree_growth;
      out.stats.order_selections = s.order_selections;
      if (cache_ != nullptr && opts.use_prepared_cache &&
          !prep.signature.empty() && opts.engine == EngineKind::kSkinnerC &&
          !s.timed_out) {
        cache_->RecordFinalOrder(prep.signature, s.final_order);
      }
      break;
    }
    case EngineKind::kSkinnerG: {
      SkinnerGOptions so;
      so.batches_per_table = opts.batches_per_table;
      so.timeout_unit = opts.timeout_unit;
      so.uct_weight = opts.uct_weight_g;
      so.engine = opts.generic_engine;
      so.seed = opts.seed;
      so.deadline = opts.deadline;
      SkinnerGEngine engine(pq, so);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      out.stats.timed_out = engine.stats().timed_out;
      out.stats.iterations = engine.stats().iterations;
      break;
    }
    case EngineKind::kSkinnerH: {
      Estimator estimator(stats_);
      PlanResult plan = OptimizeWithEstimates(pq->info(), pq->query(),
                                              &estimator);
      SkinnerHOptions so;
      so.g.batches_per_table = opts.batches_per_table;
      so.g.timeout_unit = opts.timeout_unit;
      so.g.uct_weight = opts.uct_weight_g;
      so.g.engine = opts.generic_engine;
      so.g.seed = opts.seed;
      so.g.deadline = opts.deadline;
      so.unit = opts.timeout_unit;
      so.deadline = opts.deadline;
      SkinnerHEngine engine(pq, plan.order, so);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      out.stats.timed_out = engine.stats().timed_out;
      out.stats.iterations = engine.stats().g_stats.iterations;
      out.stats.join_order = plan.order;
      out.stats.estimated_cost = plan.cost;
      break;
    }
    case EngineKind::kVolcano:
    case EngineKind::kBlock: {
      std::vector<int> order = opts.forced_order;
      if (order.empty()) {
        Estimator estimator(stats_);
        PlanResult plan = OptimizeWithEstimates(pq->info(), pq->query(),
                                                &estimator);
        order = plan.order;
        out.stats.estimated_cost = plan.cost;
      }
      out.stats.join_order = order;
      ForcedExecOptions fo;
      fo.deadline = opts.deadline;
      ForcedExecResult r;
      if (opts.engine == EngineKind::kVolcano) {
        r = ExecuteForcedOrder(*pq, order, fo, &join_result);
      } else {
        BlockExecOptions bo;
        static_cast<ForcedExecOptions&>(bo) = fo;
        r = ExecuteBlock(*pq, order, bo, &join_result);
      }
      out.stats.timed_out = !r.completed;
      out.stats.intermediate_tuples = r.intermediate_tuples;
      break;
    }
    case EngineKind::kEddy: {
      EddyOptions eo;
      eo.seed = opts.seed;
      eo.deadline = opts.deadline;
      EddyEngine engine(pq, eo);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      out.stats.timed_out = engine.stats().timed_out;
      break;
    }
    case EngineKind::kReopt: {
      Estimator estimator(stats_);
      ReoptOptions ro;
      ro.deadline = opts.deadline;
      ReoptEngine engine(pq, &estimator, ro);
      SKINNER_RETURN_IF_ERROR(engine.Run(&join_result));
      out.stats.timed_out = engine.stats().timed_out;
      out.stats.replans = engine.stats().replans;
      out.stats.join_order = engine.stats().executed_order;
      break;
    }
  }
  return out;
}

Result<QueryOutput> QueryPipeline::PostProcess(const PreparedStage& prep,
                                               ExecutedStage exec) const {
  QueryOutput out;
  out.stats = std::move(exec.stats);
  out.stats.preprocess_cost = prep.preprocess_cost;
  out.stats.prepared_from_cache = prep.cache_hit;
  out.stats.template_signature_hit = prep.template_hit;
  out.stats.tables_prepared_from_cache = prep.tables_from_cache;
  out.stats.tables_reprepared = prep.tables_reprepared;
  out.stats.cache_bytes_published = prep.cache_bytes_published;
  out.stats.join_result_tuples = exec.join_result->size();
  SKINNER_ASSIGN_OR_RETURN(out.result,
                           skinner::PostProcess(*prep.pq, *exec.join_result));
  out.stats.total_cost = prep.clock->now();
  out.stats.wall_ms = prep.watch.ElapsedMillis();
  return out;
}

Result<QueryOutput> QueryPipeline::Run(const std::string& sql,
                                       const ExecOptions& opts) const {
  SKINNER_ASSIGN_OR_RETURN(Statement stmt, Parse(sql));
  SKINNER_ASSIGN_OR_RETURN(BoundStage bound, Bind(std::move(stmt)));
  SKINNER_ASSIGN_OR_RETURN(PreparedStage prep,
                           Prepare(std::move(bound), opts));
  SKINNER_ASSIGN_OR_RETURN(ExecutedStage exec, Execute(prep, opts));
  return PostProcess(prep, std::move(exec));
}

std::vector<Result<QueryOutput>> QueryPipeline::RunBatch(
    const std::vector<ExecOptions>& opts, int num_workers,
    const std::function<Result<PreparedStage>(size_t)>& prepare) const {
  const size_t n = opts.size();
  std::vector<Result<QueryOutput>> results(
      n, Result<QueryOutput>(Status::Internal("batch item not executed")));
  std::vector<std::optional<PreparedStage>> stages(n);
  for (size_t i = 0; i < n; ++i) {
    Result<PreparedStage> stage = prepare(i);
    if (stage.ok()) {
      stages[i] = stage.MoveValue();
    } else {
      results[i] = stage.status();
    }
  }
  const int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(std::max(num_workers, 1)),
                       std::max<size_t>(n, 1)));
  SchedParallelFor(scheduler_, n, workers, [&](size_t i) {
    if (!stages[i].has_value()) return;  // prepare error
    Result<ExecutedStage> exec = Execute(*stages[i], opts[i]);
    results[i] = exec.ok() ? PostProcess(*stages[i], exec.MoveValue())
                           : Result<QueryOutput>(exec.status());
    stages[i].reset();  // release artifact handles promptly
  });
  return results;
}

}  // namespace skinner
