#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "api/query_pipeline.h"
#include "benchgen/job.h"
#include "benchgen/tpch.h"
#include "benchgen/tpch_queries.h"
#include "common/scheduler.h"
#include "engine/forced_order.h"
#include "exec/result_set.h"

namespace perfbench {

using skinner::Database;
using skinner::ExecOptions;
using skinner::QueryOutput;
using skinner::Result;
using skinner::Status;

// ---- data -------------------------------------------------------------------

Status LoadDataset(Database* db, Dataset dataset, uint64_t seed) {
  if (dataset == Dataset::kJob) {
    skinner::bench::JobSpec spec;
    spec.num_titles = kJobTitles;
    spec.seed = seed;
    return skinner::bench::GenerateJob(db, spec);
  }
  skinner::bench::TpchSpec spec;
  spec.scale_factor = kTpchScale;
  spec.seed = seed;
  SKINNER_RETURN_IF_ERROR(skinner::bench::GenerateTpch(db, spec));
  return skinner::bench::RegisterTpchUdfs(db);
}

Result<std::unique_ptr<Database>> OpenLoaded(const std::string& dir,
                                             Dataset dataset, uint64_t seed,
                                             skinner::FsyncPolicy fsync) {
  std::filesystem::create_directories(dir);
  SKINNER_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Open(dir, fsync));
  SKINNER_RETURN_IF_ERROR(LoadDataset(db.get(), dataset, seed));
  // The generators fill tables directly, not through logged DML; the
  // checkpoint is what puts the loaded data on disk.
  SKINNER_RETURN_IF_ERROR(db->Checkpoint());
  return db;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---- the traced query path ----------------------------------------------------

namespace {

/// Times `fn` into `*ms` and records it as span `name`.
template <class Fn>
auto Timed(Tracer* tracer, const char* name, int64_t parent, int64_t request,
           double* ms, Fn&& fn) {
  ScopedSpan span(tracer, name, parent, request);
  const Clock::time_point t0 = Clock::now();
  auto out = fn();
  *ms = MsSince(t0);
  return out;
}

/// Parse + bind + Prepare under `opts`, returning the stage and timing only
/// the Prepare call.
Result<skinner::PreparedStage> PrepareOnly(const skinner::QueryPipeline& p,
                                           const std::string& sql,
                                           const ExecOptions& opts,
                                           Tracer* tracer, const char* name,
                                           int64_t parent, int64_t request,
                                           double* ms) {
  SKINNER_ASSIGN_OR_RETURN(skinner::Statement stmt, p.Parse(sql));
  SKINNER_ASSIGN_OR_RETURN(skinner::BoundStage bound, p.Bind(std::move(stmt)));
  return Timed(tracer, name, parent, request, ms,
               [&] { return p.Prepare(std::move(bound), opts); });
}

}  // namespace

Result<QueryOutput> TracedQuery(Database* db, const std::string& sql,
                                const ExecOptions& opts, Tracer* tracer,
                                int64_t request, LayerSample* s) {
  skinner::QueryPipeline p(db->catalog(), db->udfs(), db->stats_manager(),
                           db->prepared_cache(), db->scheduler());
  const skinner::Scheduler::Stats sched0 = db->scheduler()->stats();
  QueryOutput out;
  skinner::PreparedStage prep;
  {
    ScopedSpan root(tracer, "query", -1, request);
    const Clock::time_point t0 = Clock::now();
    auto stmt = Timed(tracer, "sql.parse", root.id(), request, &s->parse_ms,
                      [&] { return p.Parse(sql); });
    if (!stmt.ok()) return stmt.status();
    auto bound = Timed(tracer, "sql.bind", root.id(), request, &s->bind_ms,
                       [&] { return p.Bind(stmt.MoveValue()); });
    if (!bound.ok()) return bound.status();
    auto prepared =
        Timed(tracer, "exec.prepare", root.id(), request, &s->prepare_ms,
              [&] { return p.Prepare(bound.MoveValue(), opts); });
    if (!prepared.ok()) return prepared.status();
    prep = prepared.MoveValue();
    const uint64_t units0 = prep.clock->now();
    auto executed =
        Timed(tracer, "skinner.execute", root.id(), request, &s->execute_ms,
              [&] { return p.Execute(prep, opts); });
    if (!executed.ok()) return executed.status();
    const uint64_t units1 = prep.clock->now();
    auto post = Timed(tracer, "post.postprocess", root.id(), request,
                      &s->post_ms,
                      [&] { return p.PostProcess(prep, executed.MoveValue()); });
    if (!post.ok()) return post.status();
    out = post.MoveValue();
    s->total_ms = MsSince(t0);
    s->join_units = units1 - units0;
    s->post_units = prep.clock->now() - units1;
  }
  const skinner::Scheduler::Stats sched1 = db->scheduler()->stats();
  s->pf_dispatched = sched1.pf_dispatched - sched0.pf_dispatched;
  s->pf_inline = sched1.pf_inline - sched0.pf_inline;
  s->slices = out.stats.slices;
  s->uct_nodes = out.stats.uct_nodes;
  s->intermediate_tuples = out.stats.intermediate_tuples;

  // Calibration calls: not part of the query's own path.
  ScopedSpan calib(tracer, "calibration", -1, request);
  ExecOptions fresh = opts;
  fresh.use_prepared_cache = false;
  ExecOptions filter_only = fresh;
  filter_only.build_hash_indexes = false;
  auto filtered = PrepareOnly(p, sql, filter_only, tracer, "exec.filter",
                              calib.id(), request, &s->filter_ms);
  if (!filtered.ok()) return filtered.status();
  if (opts.parallel_preprocess) {
    ExecOptions seq = filter_only;
    seq.parallel_preprocess = false;
    auto sequential = PrepareOnly(p, sql, seq, tracer, "exec.filter_seq",
                                  calib.id(), request, &s->filter_seq_ms);
    if (!sequential.ok()) return sequential.status();
  } else {
    s->filter_seq_ms = s->filter_ms;
  }
  if (opts.use_prepared_cache) {
    auto full = PrepareOnly(p, sql, fresh, tracer, "exec.prepare_fresh",
                            calib.id(), request, &s->fresh_prepare_ms);
    if (!full.ok()) return full.status();
    s->fresh_preprocess_units = full.value().preprocess_cost;
  } else {
    s->fresh_prepare_ms = s->prepare_ms;
    s->fresh_preprocess_units = prep.preprocess_cost;
  }
  s->index_build_ms = s->fresh_prepare_ms - s->filter_ms;

  // Replaying the learned order through the traditional engine prices the
  // join alone; Execute minus that (and minus its export) is what learning
  // costs on top.
  skinner::ResultSet replayed(prep.pq->num_tables());
  if (!prep.pq->trivially_empty() && !out.stats.join_order.empty()) {
    skinner::ForcedExecResult r = Timed(
        tracer, "engine.replay", calib.id(), request, &s->replay_ms, [&] {
          return skinner::ExecuteForcedOrder(*prep.pq, out.stats.join_order,
                                             skinner::ForcedExecOptions{},
                                             &replayed);
        });
    if (!r.completed) return Status::Internal("forced-order replay aborted");
  }
  if (replayed.size() != out.stats.join_result_tuples) {
    return Status::Internal("forced-order replay of " + sql + " produced " +
                            std::to_string(replayed.size()) +
                            " join tuples, Execute " +
                            std::to_string(out.stats.join_result_tuples));
  }
  std::vector<skinner::PosTuple> exported;
  Timed(tracer, "exec.export", calib.id(), request, &s->export_ms, [&] {
    replayed.ExportSorted(&exported);
    return 0;
  });
  return out;
}

void Accumulate(const LayerSample& s, LayerSample* sum) {
  sum->total_ms += s.total_ms;
  sum->parse_ms += s.parse_ms;
  sum->bind_ms += s.bind_ms;
  sum->prepare_ms += s.prepare_ms;
  sum->filter_ms += s.filter_ms;
  sum->filter_seq_ms += s.filter_seq_ms;
  sum->index_build_ms += s.index_build_ms;
  sum->execute_ms += s.execute_ms;
  sum->post_ms += s.post_ms;
  sum->replay_ms += s.replay_ms;
  sum->export_ms += s.export_ms;
  sum->fresh_prepare_ms += s.fresh_prepare_ms;
  sum->fresh_preprocess_units += s.fresh_preprocess_units;
  sum->join_units += s.join_units;
  sum->post_units += s.post_units;
  sum->slices += s.slices;
  sum->uct_nodes += s.uct_nodes;
  sum->intermediate_tuples += s.intermediate_tuples;
  sum->pf_dispatched += s.pf_dispatched;
  sum->pf_inline += s.pf_inline;
}

void ReportLayers(const std::vector<LayerSample>& samples, Report* report) {
  auto med = [&](auto field) {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const LayerSample& s : samples) v.push_back(field(s));
    return Median(std::move(v));
  };
  report->Add("sql.parse_ms", med([](auto& s) { return s.parse_ms; }), "ms");
  report->Add("sql.bind_ms", med([](auto& s) { return s.bind_ms; }), "ms");
  report->Add("exec.prepare_ms", med([](auto& s) { return s.prepare_ms; }), "ms");
  report->Add("exec.filter_ms", med([](auto& s) { return s.filter_ms; }), "ms");
  report->Add("exec.filter_seq_ms",
              med([](auto& s) { return s.filter_seq_ms; }), "ms");
  report->Add("exec.index_build_ms",
              med([](auto& s) { return s.index_build_ms; }), "ms");
  report->Add("skinner.execute_ms", med([](auto& s) { return s.execute_ms; }),
              "ms");
  report->Add("skinner.slices",
              med([](auto& s) { return static_cast<double>(s.slices); }),
              "count");
  report->Add("uct.nodes",
              med([](auto& s) { return static_cast<double>(s.uct_nodes); }),
              "count");
  report->Add("skinner.intermediate_tuples", med([](auto& s) {
                return static_cast<double>(s.intermediate_tuples);
              }),
              "count");
  report->Add("engine.replay_ms", med([](auto& s) { return s.replay_ms; }), "ms");
  report->Add("exec.export_ms", med([](auto& s) { return s.export_ms; }), "ms");
  report->Add("skinner.learning_overhead", med([](auto& s) {
                return s.replay_ms > 0
                           ? (s.execute_ms - s.export_ms) / s.replay_ms
                           : 0.0;
              }),
              "ratio");
  report->Add("post.postprocess_ms", med([](auto& s) { return s.post_ms; }),
              "ms");
  report->Add("post.postprocess_units",
              med([](auto& s) { return static_cast<double>(s.post_units); }),
              "units");
  report->Add("scheduler.pf_dispatched",
              med([](auto& s) { return static_cast<double>(s.pf_dispatched); }),
              "count");
  report->Add("scheduler.pf_inline",
              med([](auto& s) { return static_cast<double>(s.pf_inline); }),
              "count");
  report->Add("exec.ns_per_unit", med([](auto& s) {
                return s.fresh_preprocess_units > 0
                           ? s.fresh_prepare_ms * 1e6 /
                                 static_cast<double>(s.fresh_preprocess_units)
                           : 0.0;
              }),
              "ns/unit");
  report->Add("skinner.ns_per_unit", med([](auto& s) {
                return s.join_units > 0 ? s.execute_ms * 1e6 /
                                              static_cast<double>(s.join_units)
                                        : 0.0;
              }),
              "ns/unit");
}

// ---- writes and durability -----------------------------------------------------

void RunOpenLoopWriter(WriteScript* script, const OpenLoop& loop,
                       const std::function<bool(const std::string&)>& dml,
                       const std::function<bool()>& checkpoint,
                       const std::function<bool()>& stop, uint64_t max_dml,
                       WriteLog* log) {
  uint64_t op = 0;
  uint64_t dml_done = 0;
  while (dml_done < max_dml && !stop()) {
    const Clock::time_point due = loop.Due(op++);
    std::this_thread::sleep_until(due);
    if (stop()) break;
    const Clock::time_point sent = Clock::now();
    log->late_ms.push_back(OpenLoop::LatenessMs(due, sent));
    ++log->attempted;
    if (log->since_checkpoint >= kCheckpointEvery) {
      const bool ok = checkpoint();
      log->checkpoint_ms.push_back(MsSince(sent));
      if (!ok) {
        ++log->failed;
      } else {
        log->since_checkpoint = 0;
      }
      continue;
    }
    const std::string sql = script->Next();
    ++dml_done;
    if (dml(sql)) {
      log->latency_ms.push_back(MsSince(due));
      log->acked.push_back(sql);
      ++log->since_checkpoint;
    } else {
      ++log->failed;
    }
  }
}

void DirectWrites(Database* db, WriteScript* script, int min_writes,
                  double gap_ms, WriteLog* log, Report* report) {
  int written = 0;
  while (written < min_writes || log->since_checkpoint != kRecoveryTail) {
    if (log->since_checkpoint >= kCheckpointEvery) {
      const Clock::time_point t0 = Clock::now();
      const Status st = db->Checkpoint();
      log->checkpoint_ms.push_back(MsSince(t0));
      if (!st.ok()) {
        report->Fail("checkpoint: " + st.ToString());
        return;
      }
      log->since_checkpoint = 0;
      continue;
    }
    const std::string sql = script->Next();
    ++log->attempted;
    const Clock::time_point t0 = Clock::now();
    const Status st = db->Execute(sql);
    log->direct_dml_ms.push_back(MsSince(t0));
    if (!st.ok()) {
      ++log->failed;
      report->Fail(sql + ": " + st.ToString());
      return;
    }
    log->acked.push_back(sql);
    ++log->since_checkpoint;
    ++written;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(gap_ms));
  }
}

void RecoverAndVerify(const std::string& dir, Dataset dataset, uint64_t seed,
                      skinner::FsyncPolicy fsync, const WriteLog& log,
                      RunContext* ctx) {
  std::unique_ptr<Database> db;
  std::vector<double> open_s;
  for (int i = 0; i < kRecoveryOpens; ++i) {
    db.reset();  // one database owns the directory at a time
    const Clock::time_point t0 = Clock::now();
    auto opened = Database::Open(dir, fsync);
    open_s.push_back(MsSince(t0) / 1000.0);
    if (!opened.ok()) {
      ctx->report.Fail("recovery: " + opened.status().ToString());
      return;
    }
    db = opened.MoveValue();
  }
  if (!ctx->args.trace) ctx->report.Add("recover_s", Median(open_s), "s");
  if (dataset == Dataset::kTpch) {
    const Status st = skinner::bench::RegisterTpchUdfs(db.get());
    if (!st.ok()) ctx->report.Fail("udfs: " + st.ToString());
  }

  Database twin;
  Status st = LoadDataset(&twin, dataset, seed);
  if (!st.ok()) {
    ctx->report.Fail("twin: " + st.ToString());
    return;
  }
  std::vector<double> inmem_ms;
  inmem_ms.reserve(log.acked.size());
  for (const std::string& sql : log.acked) {
    const Clock::time_point t0 = Clock::now();
    st = twin.Execute(sql);
    inmem_ms.push_back(MsSince(t0));
    if (!st.ok()) {
      ctx->report.Fail("twin " + sql + ": " + st.ToString());
      return;
    }
  }
  if (ctx->args.trace) {
    ctx->report.Add("txn.dml_inmem_ms", Median(inmem_ms), "ms");
  }
  const std::string diff = CompareDatabases(db.get(), &twin);
  if (!diff.empty()) ctx->report.Fail("recovered state: " + diff);
}

void AddPercentile(const std::string& name, const std::vector<double>& samples,
                   double q, RunContext* ctx) {
  std::optional<double> v = Percentile(samples, q);
  if (!v.has_value()) {
    ctx->report.Fail(name + ": " + std::to_string(samples.size()) +
                     " samples leave fewer than " +
                     std::to_string(kMinTailSamples) + " beyond the percentile");
    return;
  }
  ctx->report.Add(name, *v, "ms");
}

void ReportWrites(const WriteLog& log, const std::vector<double>& write_ms,
                  uint64_t wal_bytes, RunContext* ctx) {
  // A writer that could not keep its schedule measured its own backlog,
  // not the system: the run is invalid.
  if (!log.late_ms.empty() && log.late_ms.back() > kMaxWriterLateMs) {
    ctx->report.Fail("the open-loop writer fell behind by " +
                     std::to_string(log.late_ms.back()) + " ms");
  }
  if (!ctx->args.trace) {
    AddPercentile("write_p50_ms", write_ms, 0.5, ctx);
    AddPercentile("write_p95_ms", write_ms, 0.95, ctx);
    return;
  }
  Report& r = ctx->report;
  r.Add("txn.dml_ms", Median(log.direct_dml_ms), "ms");
  r.Add("txn.wal_bytes_per_write",
        log.acked.empty() ? 0.0
                          : static_cast<double>(wal_bytes) /
                                static_cast<double>(log.acked.size()),
        "B");
  r.Add("txn.checkpoint_ms", Median(log.checkpoint_ms), "ms");
  std::optional<double> late = Percentile(log.late_ms, 0.95);
  r.Add("bench.writer_late_ms", late.value_or(Median(log.late_ms)), "ms");
}

}  // namespace perfbench
