// Pieces every workload shares: run arguments, data sets, the traced query
// path, the open-loop writer bookkeeping and the durability tail (settle,
// recover, compare against an in-memory twin).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string dir;  // scratch directory for this run's databases and trace
};

/// State of one run: its arguments, the result line and (traced runs
/// only) the span recorder.
struct RunContext {
  RunArgs args;
  Report report;
  Tracer tracer;
  Tracer* tracer_or_null() { return args.trace ? &tracer : nullptr; }
};

int RunJobCold(RunContext* ctx);
int RunTpchUdf(RunContext* ctx);

// ---- data -------------------------------------------------------------------

enum class Dataset { kJob, kTpch };

/// JOB at the bench_job scale, TPC-H at SF 0.05 (lineitem ~300k rows).
constexpr int64_t kJobTitles = 5000;
constexpr double kTpchScale = 0.05;

/// Generates the data set into `db` from `seed` (TPC-H also registers its
/// UDFs).
skinner::Status LoadDataset(skinner::Database* db, Dataset dataset,
                            uint64_t seed);

/// Opens a durable database in `dir`, which must not hold one yet, loads the
/// data set and checkpoints it, so the loaded data is on disk.
skinner::Result<std::unique_ptr<skinner::Database>> OpenLoaded(
    const std::string& dir, Dataset dataset, uint64_t seed,
    skinner::FsyncPolicy fsync);

/// Removes `dir` and everything below it.
void RemoveTree(const std::string& dir);

// ---- the traced query path ----------------------------------------------------

/// Per-layer measurements of one query, from the stage-by-stage pipeline.
struct LayerSample {
  double total_ms = 0;  // parse .. post-process, the query's own path
  double parse_ms = 0;
  double bind_ms = 0;
  double prepare_ms = 0;
  double filter_ms = 0;      // Prepare without index builds, as configured
  double filter_seq_ms = 0;  // the same, sequential pre-processing
  double index_build_ms = 0; // fresh full Prepare minus filter_ms
  double execute_ms = 0;
  double post_ms = 0;
  double replay_ms = 0;      // ExecuteForcedOrder on the final join order
  double export_ms = 0;      // ResultSet::ExportSorted on the replay's result
  double fresh_prepare_ms = 0;
  uint64_t fresh_preprocess_units = 0;
  uint64_t join_units = 0;   // virtual clock advance during Execute
  uint64_t post_units = 0;   // virtual clock advance during PostProcess
  uint64_t slices = 0;
  uint64_t uct_nodes = 0;
  uint64_t intermediate_tuples = 0;
  uint64_t pf_dispatched = 0;
  uint64_t pf_inline = 0;
};

/// Runs `sql` through QueryPipeline stage by stage (as Database::Query
/// does), timing each stage, then the calibration calls: filter-only
/// Prepare, a fresh Prepare when `opts` uses the cache, the forced-order
/// replay of the final join order and the export of its result. Spans go
/// to `tracer` (may be null) under request id `request`.
skinner::Result<skinner::QueryOutput> TracedQuery(
    skinner::Database* db, const std::string& sql,
    const skinner::ExecOptions& opts, Tracer* tracer, int64_t request,
    LayerSample* sample);

/// Adds every field of `s` into `*sum` (a pass is the sum of its queries).
void Accumulate(const LayerSample& s, LayerSample* sum);

/// Adds the per-layer metrics of the query path: each field of `samples`
/// (one entry per pass or per operation) reduced by its median.
void ReportLayers(const std::vector<LayerSample>& samples, Report* report);

// ---- writes and durability -----------------------------------------------------

/// Writer configuration (recorded in perfbench/design.json).
constexpr double kWriteOpsPerSecond = 60;  // the served probe's open loop
constexpr int kCheckpointEvery = 200;  // DML statements between checkpoints
constexpr int kRecoveryTail = 20;      // DML in the log when recovering
constexpr int kRecoveryOpens = 7;      // Database::Open calls per run
constexpr double kMaxWriterLateMs = 1000;  // final lateness of a valid run

/// What a writer did, in acknowledgement order.
struct WriteLog {
  std::vector<std::string> acked;   // acknowledged DML
  std::vector<double> latency_ms;   // per acknowledged DML, from due time
  std::vector<double> late_ms;      // per operation, send lateness
  std::vector<double> checkpoint_ms;
  std::vector<double> direct_dml_ms;  // Database::Execute on the durable db
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int since_checkpoint = 0;
};

/// Drives one open-loop writer: each operation is due at loop.Due(i); DML
/// goes through `dml`, and every kCheckpointEvery acknowledged DML a
/// checkpoint through `checkpoint`. Both return false on failure. Stops when
/// `stop()` is true (checked before each operation) or after `max_dml`.
void RunOpenLoopWriter(WriteScript* script, const OpenLoop& loop,
                       const std::function<bool(const std::string&)>& dml,
                       const std::function<bool()>& checkpoint,
                       const std::function<bool()>& stop, uint64_t max_dml,
                       WriteLog* log);

/// Writes straight into `db`, with no concurrent reader: at least
/// `min_writes` DML, each timed from its call into log->direct_dml_ms and
/// followed by an untimed pause of `gap_ms`, checkpointing every
/// kCheckpointEvery DML, until exactly kRecoveryTail DML follow the last
/// checkpoint (so recovery always replays the same tail).
void DirectWrites(skinner::Database* db, WriteScript* script, int min_writes,
                  double gap_ms, WriteLog* log, Report* report);

/// The durability tail of every workload, run after the workload closed its
/// durable database: recover_s (median of kRecoveryOpens Database::Open
/// calls on `dir`), then the check that the recovered tables equal an
/// in-memory twin that applied the acknowledged DML in order. Adds recover_s
/// and (traced runs) txn.dml_inmem_ms, the twin's Database::Execute time per
/// statement.
void RecoverAndVerify(const std::string& dir, Dataset dataset, uint64_t seed,
                      skinner::FsyncPolicy fsync, const WriteLog& log,
                      RunContext* ctx);

/// Serves `db` over loopback TCP for a few seconds to one closed-loop reader
/// of parameterized JOB templates and one open-loop writer drawing on
/// `script` (its statements and timings go to `log`), and adds the server
/// and cache layer metrics: server.rtt_ms, server.handle_ms,
/// exec.table_hit_rate and exec.tables_reprepared_per_read.
void ServedProbe(RunContext* ctx, skinner::Database* db, WriteScript* script,
                 WriteLog* log);

/// Adds write_p50_ms / write_p95_ms over `write_ms` (untraced runs) or the
/// txn.* / bench.writer_late_ms layer metrics (traced runs).
void ReportWrites(const WriteLog& log, const std::vector<double>& write_ms,
                  uint64_t wal_bytes, RunContext* ctx);

/// Adds `name` as the p-quantile of `samples`, or fails the run when the
/// sample is too small for it.
void AddPercentile(const std::string& name, const std::vector<double>& samples,
                   double q, RunContext* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
