// Shared helpers of the wall-clock benchmark: timing, percentiles, the
// metric report, spans, the open-loop schedule, the deterministic writer
// script and the correctness checks. Nothing here touches engine internals;
// every call goes through the library's public headers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
#include "common/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double MsSince(Clock::time_point from) { return Ms(from, Clock::now()); }

// ---- statistics -----------------------------------------------------------

/// A percentile is reported only when at least this many samples lie beyond
/// it, so the tail it describes is measured, not a single outlier.
constexpr size_t kMinTailSamples = 10;

/// Nearest-rank `q`-quantile (0 < q < 1) of `samples`, or nullopt when fewer
/// than kMinTailSamples samples lie strictly above its rank.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median (the mean of the two middle values for an even count); 0 when
/// `samples` is empty.
double Median(std::vector<double> samples);

/// The paper's max query time, made steady: `samples[q][i]` holds the
/// latencies of query q on instance i (a data set or a parameter set);
/// each instance is reduced to its median, each query to the mean over its
/// instances, and the result is the largest query's.
double SlowestQueryMs(const std::vector<std::vector<std::vector<double>>>& samples);

// ---- the result line ------------------------------------------------------

/// True for names made only of [A-Za-z0-9_.-] that start with a letter or
/// digit and have at most 64 characters (the BENCHMARK.json name rule).
bool ValidMetricName(const std::string& name);

/// The metrics of one run, printed as the last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records why the run is not correct.
  void Fail(const std::string& why);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> failures_;
};

// ---- tracing ----------------------------------------------------------------

/// In-memory span recorder: one span per call into a layer, with its parent
/// and the request it belongs to. Written out once, at the end of the run.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t parent = -1;   // -1: a root span
    int64_t request = 0;   // spans of one request share this
    double start_ms = 0;   // since the tracer was created
    double end_ms = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span and returns its id.
  int64_t Begin(const std::string& name, int64_t parent, int64_t request);
  /// Closes span `id` and returns its duration in milliseconds.
  double End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span name: total time and self time (duration minus the part of
  /// the interval that child spans cover), in milliseconds.
  std::vector<std::pair<std::string, std::pair<double, double>>>
  TotalAndSelf() const;
  /// Writes every span plus the per-name totals as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent,
             int64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---- open loop ----------------------------------------------------------------

/// A fixed-rate schedule: operation i is due at start + i / rate. Latency is
/// taken from the due time, so a stall also charges the operations that
/// queued behind it; lateness is how far behind the due time an operation
/// was actually sent.
class OpenLoop {
 public:
  OpenLoop(Clock::time_point start, double ops_per_s)
      : start_(start), period_ms_(1000.0 / ops_per_s) {}
  Clock::time_point Due(uint64_t i) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            period_ms_ * static_cast<double>(i)));
  }
  static double LatenessMs(Clock::time_point due, Clock::time_point sent) {
    return sent > due ? Ms(due, sent) : 0.0;
  }

 private:
  Clock::time_point start_;
  double period_ms_;
};

// ---- writer script ---------------------------------------------------------

/// The deterministic DML stream of a workload's writer: UPDATEs, INSERTs and
/// DELETEs (each DELETE removes the oldest still-present INSERT) over tables
/// the workload's queries read. A pure function of (kind, seed, scale).
class WriteScript {
 public:
  enum class Kind { kJob, kTpch };
  WriteScript(Kind kind, uint64_t seed, int64_t scale_rows);
  std::string Next();

 private:
  Kind kind_;
  skinner::Rng rng_;
  int64_t scale_rows_;
  uint64_t n_ = 0;
  int64_t next_key_ = 0;
  std::deque<std::pair<int64_t, int64_t>> inserted_;
};

// ---- correctness --------------------------------------------------------------

using Row = std::vector<skinner::Value>;

/// An exact, order-independent fingerprint of a result (its rows as a
/// sorted multiset, doubles printed with all their digits): equal results
/// of repeated runs of one engine give equal fingerprints.
std::string ResultFingerprint(const skinner::QueryResult& result);

/// Empty when `got` and `want` are equal as multisets of rows, doubles
/// compared with relative tolerance `rel_tol` (engines may sum in another
/// order); otherwise a one-line description of the first difference.
std::string CompareRows(std::vector<Row> got, std::vector<Row> want,
                        double rel_tol);

/// Empty when `a` and `b` hold the same tables with exactly the same valid
/// rows (row order ignored); otherwise the first difference.
std::string CompareDatabases(skinner::Database* a, skinner::Database* b);

// ---- process ---------------------------------------------------------------

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Runs the self-tests of the helpers above; returns the failures.
std::vector<std::string> RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
