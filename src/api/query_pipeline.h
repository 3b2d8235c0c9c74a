#ifndef SKINNER_API_QUERY_PIPELINE_H_
#define SKINNER_API_QUERY_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/clock.h"
#include "exec/prepared_cache.h"

namespace skinner {

/// Output of the bind stage: the fully resolved query, plus the cache
/// identity of a parameter-substituted template instance. A literal SELECT
/// leaves both identity fields empty and is prepared as a zero-parameter
/// template: Prepare() derives the signature from the query (only when
/// caching is on, so the default uncached path pays no serialization) and
/// keys every table's artifact with an empty value string.
struct BoundStage {
  std::unique_ptr<BoundQuery> query;
  /// Set by PreparedStatement: the parameter-abstracted template signature
  /// and, per FROM table, the serialized values of the parameters reaching
  /// that table's unary filters (see TableArtifactKey).
  std::string template_signature;
  std::vector<std::string> table_param_values;
};

/// Output of the prepare stage: the query and its analysis, the
/// per-execution view over the (possibly cached) per-table artifacts, the
/// virtual clock this execution ticks, the wall-clock stopwatch, and the
/// warm-start hint. Movable: `pq` points at `bound`, `info` and `clock`,
/// which live on the heap exactly so moves keep them stable.
struct PreparedStage {
  std::unique_ptr<BoundQuery> bound;  // null when the caller owns the query
  std::unique_ptr<QueryInfo> info;
  std::unique_ptr<PreparedQuery> pq;  // per-execution view
  std::unique_ptr<VirtualClock> clock;
  Stopwatch watch;
  std::string signature;               // empty: not cached
  bool cache_hit = false;              // every table's artifact was cached
  uint64_t preprocess_cost = 0;        // only the tables built here count
  std::vector<int> warm_order;         // UCT warm-start hint (may be empty)
  /// A warm-start order keyed by the template signature existed in the
  /// cache (reported even when opts.warm_start leaves it unused).
  bool template_hit = false;
  /// Per-table artifact provenance (cached prepares only).
  int tables_from_cache = 0;
  int tables_reprepared = 0;
  /// Artifact bytes this prepare published into the cross-query cache
  /// (0 on hits and when ExecOptions::cache_read_only withheld publishes).
  uint64_t cache_bytes_published = 0;
};

/// Output of the execute stage: the join result in position space plus the
/// engine's counters. Post-processing turns it into the final rows.
struct ExecutedStage {
  std::unique_ptr<ResultSet> join_result;
  ExecutionStats stats;
};

/// The staged SELECT pipeline (paper Figure 2, plus parse/bind):
///
///   parse -> bind -> prepare -> execute -> post-process
///
/// Each stage consumes the previous stage's context object, so callers can
/// run the stages back to back (Run(), which is what Database::Query does)
/// or interleave the stages of many queries: RunBatch() prepares every
/// item in item order, then executes all items concurrently against the
/// shared artifacts.
///
/// The pipeline object itself is stateless apart from the injected
/// components and is cheap to construct. Stages over distinct stage
/// objects may run concurrently (the string pool interns under its own
/// lock), so any number of pipelines over the same database may run
/// their stages in parallel.
class QueryPipeline {
 public:
  /// `scheduler` hosts the pipeline's parallel work (parallel
  /// pre-processing; Skinner-C worker-thread leases). Null runs all of it
  /// inline/unleased — correct but unarbitrated; Database always passes
  /// its own scheduler. Per-call ExecOptions::scheduler overrides it.
  QueryPipeline(Catalog* catalog, const UdfRegistry* udfs,
                StatsManager* stats, PreparedCache* cache,
                Scheduler* scheduler = nullptr);

  /// Stage 1: SQL text -> parsed statement (must be a SELECT).
  Result<Statement> Parse(const std::string& sql) const;

  /// Stage 2: parsed SELECT -> bound query. Interns string literals into
  /// the catalog's pool.
  Result<BoundStage> Bind(Statement stmt) const;

  /// Stage 3: bound query -> prepared stage. Without opts.use_prepared_cache
  /// every table is filtered and indexed afresh. With it, every FROM
  /// table's artifact goes through the PreparedCache under its
  /// TableArtifactKey and data-version stamp, following the cache's
  /// claim-all protocol: try-acquire every table's claim up front, build
  /// and publish the owned ones, and only then wait on other executions'
  /// in-flight builds. Only the tables built here are charged. Both ways
  /// build through BuildTableArtifacts, so a table costs the same whether
  /// or not it is cached. Thread-safe. Parameterized templates
  /// (num_params > 0) are rejected — only PreparedStatement may run those.
  Result<PreparedStage> Prepare(BoundStage bound, const ExecOptions& opts) const;

  /// Stage 3 for an externally owned BoundQuery (Database::RunSelect):
  /// always prepares fresh, never caches.
  Result<PreparedStage> PrepareExternal(const BoundQuery* query,
                                        const ExecOptions& opts) const;

  /// Stage 4: runs the chosen engine over the prepared artifact; fills the
  /// engine counters. Records Skinner-C's final order as the signature's
  /// warm-start hint. Thread-safe across distinct PreparedStages.
  Result<ExecutedStage> Execute(const PreparedStage& prep,
                                const ExecOptions& opts) const;

  /// Stage 5: post-processes the join result into final rows and closes
  /// the books (total cost, wall time, cache provenance).
  Result<QueryOutput> PostProcess(const PreparedStage& prep,
                                  ExecutedStage exec) const;

  /// All five stages back to back.
  Result<QueryOutput> Run(const std::string& sql,
                          const ExecOptions& opts) const;

  /// The batch runner of Session::QueryBatch and Session::ExecuteBatch:
  /// `prepare(i)` runs for every item sequentially in item order, then
  /// Execute + PostProcess run for every prepared item on up to
  /// `num_workers` participation slots of the pipeline's scheduler.
  /// Preparing in item order fixes which item pays each artifact build
  /// (the first to claim a table's key) and which warm-start hint every
  /// item sees, before anything executes — so per-item results and stats
  /// are identical for any worker count. Results are per item, in order.
  std::vector<Result<QueryOutput>> RunBatch(
      const std::vector<ExecOptions>& opts, int num_workers,
      const std::function<Result<PreparedStage>(size_t)>& prepare) const;

 private:
  /// The uncached prepare of `owned_query`, or of `query` when the caller
  /// owns it.
  Result<PreparedStage> PrepareFresh(std::unique_ptr<BoundQuery> owned_query,
                                     const BoundQuery* query,
                                     const ExecOptions& opts) const;
  PrepareOptions MakePrepareOptions(const ExecOptions& opts) const;

  Scheduler* EffectiveScheduler(const ExecOptions& opts) const {
    return opts.scheduler != nullptr ? opts.scheduler : scheduler_;
  }

  Catalog* catalog_;
  const UdfRegistry* udfs_;
  StatsManager* stats_;
  PreparedCache* cache_;   // may be null: caching disabled
  Scheduler* scheduler_;   // may be null: inline parallel work
};

}  // namespace skinner

#endif  // SKINNER_API_QUERY_PIPELINE_H_
