// The analytic workloads, job-cold and tpch-udf: one client running the
// query set in repeated passes through Database::Query (closed loop), the
// paper's Table 1 / Figure 13 setting. After the timed window they run a
// write phase with no concurrent reader, so every workload reports the same
// end-to-end metrics: here write latency is that of DML alone.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "benchgen/job.h"
#include "benchgen/tpch_queries.h"
#include "common/scheduler.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "workload.h"

namespace perfbench {

using skinner::Database;
using skinner::ExecOptions;

namespace {

/// The write phase after the query window: DML one at a time (with no
/// reader there is nothing to queue behind), each timed from its call. 300
/// leave 15 samples beyond the p95; the untimed pause between them spreads
/// the sample over seconds instead of a burst of well under a second.
constexpr int kAnalyticWrites = 300;
constexpr double kAnalyticWriteGapMs = 10;

/// The workloads log without fsync: their write phase measures the DML and
/// WAL-append path and checkpoints, not the shared device's flush latency.
constexpr skinner::FsyncPolicy kFsync = skinner::FsyncPolicy::kNever;

struct AnalyticSpec {
  Dataset dataset;
  std::vector<std::string> names;
  std::vector<std::string> sqls;
  ExecOptions opts;
  int num_datasets;  // data sets per run, each from its own seed
  int setup_reps;    // set-ups per run (at least one per data set)
  WriteScript::Kind write_kind;
  const char* write_table;  // the table the writer's UPDATEs address by key
};

/// One loaded data set of a run.
struct Loaded {
  std::string dir;
  uint64_t seed = 0;
  std::unique_ptr<Database> db;
  std::vector<skinner::QueryResult> first;  // warm-up results, per query
  std::vector<std::string> fingerprint;
};

int RunAnalytic(RunContext* ctx, AnalyticSpec spec) {
  Report& report = ctx->report;
  Tracer* tracer = ctx->tracer_or_null();

  // ---- set-up: generate, load and checkpoint, several times ----------------
  // Data set k > 0 has its own seed derived from the workload seed, so one
  // run averages over several draws of a skewed generator.
  std::vector<Loaded> sets(static_cast<size_t>(spec.num_datasets));
  for (size_t k = 0; k < sets.size(); ++k) {
    sets[k].dir = ctx->args.dir + "/db" + std::to_string(k);
    sets[k].seed = ctx->args.seed + k * 0x9E3779B97F4A7C15ull;
  }
  std::vector<double> setup_s;
  for (int i = 0; i < std::max(spec.setup_reps, spec.num_datasets); ++i) {
    Loaded& set = sets[static_cast<size_t>(i % spec.num_datasets)];
    set.db.reset();
    RemoveTree(set.dir);
    const Clock::time_point t0 = Clock::now();
    auto opened = OpenLoaded(set.dir, spec.dataset, set.seed, kFsync);
    setup_s.push_back(MsSince(t0) / 1000.0);
    if (!opened.ok()) {
      report.Fail("set-up: " + opened.status().ToString());
      return 1;
    }
    set.db = opened.MoveValue();
  }
  if (spec.opts.parallel_preprocess) {
    spec.opts.num_threads = std::max(
        1, std::min<int>(sets[0].db->scheduler()->num_workers(),
                         static_cast<int>(std::thread::hardware_concurrency())));
  }

  // ---- warm-up pass: fills lazily built state, pins each query's result ----
  const size_t n = spec.sqls.size();
  for (Loaded& set : sets) {
    for (size_t q = 0; q < n; ++q) {
      auto r = set.db->Query(spec.sqls[q], spec.opts);
      if (!r.ok()) {
        report.Fail(spec.names[q] + ": " + r.status().ToString());
        return 1;
      }
      set.first.push_back(std::move(r.value().result));
      set.fingerprint.push_back(ResultFingerprint(set.first.back()));
    }
  }

  // ---- timed window ------------------------------------------------------------
  // Passes rotate over the data sets. Untraced runs time Database::Query.
  // Traced runs alternate a round of untraced passes (one per data set)
  // with a round of stage-by-stage traced passes, so the two pass times
  // give the tracing overhead within one process and over the same data.
  std::vector<std::vector<std::vector<double>>> per_query(
      n, std::vector<std::vector<double>>(sets.size()));
  std::vector<double> all_ms;
  std::vector<double> untraced_pass_ms;
  std::vector<double> traced_pass_ms;
  std::vector<LayerSample> passes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t request = 0;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; MsSince(start) < ctx->args.seconds * 1000.0; ++pass) {
    const bool traced =
        tracer != nullptr && (pass / spec.num_datasets) % 2 == 1;
    Loaded& set = sets[static_cast<size_t>(pass % spec.num_datasets)];
    Database* db = set.db.get();
    LayerSample sum;
    double pass_ms = 0;
    for (size_t q = 0; q < n; ++q) {
      ++attempted;
      skinner::Result<skinner::QueryOutput> r =
          skinner::Status::Internal("not run");
      if (traced) {
        LayerSample s;
        r = TracedQuery(db, spec.sqls[q], spec.opts, tracer, request++, &s);
        Accumulate(s, &sum);
        pass_ms += s.total_ms;
      } else {
        const Clock::time_point t0 = Clock::now();
        r = db->Query(spec.sqls[q], spec.opts);
        const double ms = MsSince(t0);
        if (r.ok()) {
          per_query[q][static_cast<size_t>(pass % spec.num_datasets)]
              .push_back(ms);
          all_ms.push_back(ms);
          pass_ms += ms;
        }
      }
      if (!r.ok()) {
        ++failed;
        std::fprintf(stderr, "perfbench: %s: %s\n", spec.names[q].c_str(),
                     r.status().ToString().c_str());
        continue;
      }
      if (ResultFingerprint(r.value().result) != set.fingerprint[q]) {
        report.Fail(spec.names[q] + ": result changed between passes");
      }
    }
    (traced ? traced_pass_ms : untraced_pass_ms).push_back(pass_ms);
    if (traced) passes.push_back(sum);
  }
  const double peak_rss_mb = PeakRssMb();

  // ---- correctness: every result equals the traditional engine's -----------
  for (Loaded& set : sets) {
    for (size_t q = 0; q < n; ++q) {
      ExecOptions volcano;
      volcano.engine = skinner::EngineKind::kVolcano;
      auto ref = set.db->Query(spec.sqls[q], volcano);
      if (!ref.ok()) {
        report.Fail(spec.names[q] + " reference: " + ref.status().ToString());
        continue;
      }
      const std::string diff =
          CompareRows(set.first[q].rows, ref.value().result.rows, 1e-9);
      if (!diff.empty()) report.Fail(spec.names[q] + " vs Volcano: " + diff);
    }
  }

  // ---- write phase on the first data set, then the durability tail ---------
  for (size_t k = 1; k < sets.size(); ++k) {
    sets[k].db.reset();
    RemoveTree(sets[k].dir);
  }
  Database* db = sets[0].db.get();
  const skinner::Table* written = db->catalog()->FindTable(spec.write_table);
  WriteScript script(spec.write_kind, sets[0].seed, written->num_rows());
  WriteLog log;
  const uint64_t wal0 = db->wal_stats().wal_bytes;
  // Traced JOB runs serve the data set for a few seconds first: the only
  // measurement of the server and cache layers (see served.cc).
  const bool probe = tracer != nullptr && spec.dataset == Dataset::kJob;
  if (probe) ServedProbe(ctx, db, &script, &log);
  DirectWrites(db, &script, kAnalyticWrites, kAnalyticWriteGapMs, &log,
               &report);
  const uint64_t wal_bytes = db->wal_stats().wal_bytes - wal0;
  sets[0].db.reset();
  RecoverAndVerify(sets[0].dir, spec.dataset, sets[0].seed, kFsync, log, ctx);

  report.attempted += attempted + log.attempted;
  report.failed += failed + log.failed;
  if (tracer == nullptr) {
    report.Add("setup_s", Median(setup_s), "s");
    // Per pass, not per window: the median pass is robust to a transient
    // slowdown of the machine.
    report.Add("queries_per_s",
               static_cast<double>(n) / (Median(untraced_pass_ms) / 1000.0),
               "1/s");
    AddPercentile("query_p50_ms", all_ms, 0.5, ctx);
    AddPercentile("query_p95_ms", all_ms, 0.95, ctx);
    report.Add("slowest_query_ms", SlowestQueryMs(per_query), "ms");
    report.Add("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    ReportLayers(passes, &report);
    if (!probe) {
      // Layers this workload bypasses: no cache, no server.
      report.Add("exec.table_hit_rate", 0, "ratio");
      report.Add("exec.tables_reprepared_per_read", 0, "count");
      report.Add("server.rtt_ms", 0, "ms");
      report.Add("server.handle_ms", 0, "ms");
    }
    report.Add("bench.trace_overhead",
               Median(traced_pass_ms) / Median(untraced_pass_ms) - 1.0,
               "ratio");
  }
  ReportWrites(log, log.direct_dml_ms, wal_bytes, ctx);
  return 0;
}

}  // namespace

int RunJobCold(RunContext* ctx) {
  AnalyticSpec spec;
  spec.dataset = Dataset::kJob;
  skinner::bench::JobWorkload w = skinner::bench::JobQueries();
  spec.names = w.names;
  spec.sqls = w.queries;
  spec.num_datasets = 5;
  spec.setup_reps = 10;
  spec.write_kind = WriteScript::Kind::kJob;
  spec.write_table = "title";
  return RunAnalytic(ctx, std::move(spec));
}

int RunTpchUdf(RunContext* ctx) {
  AnalyticSpec spec;
  spec.dataset = Dataset::kTpch;
  for (const skinner::bench::TpchQuery& q : skinner::bench::TpchUdfQueries()) {
    spec.names.push_back(q.name);
    spec.sqls.push_back(q.sql);
  }
  spec.opts.parallel_preprocess = true;
  spec.num_datasets = 2;
  spec.setup_reps = 3;
  spec.write_kind = WriteScript::Kind::kTpch;
  spec.write_table = "part";
  return RunAnalytic(ctx, std::move(spec));
}

}  // namespace perfbench
