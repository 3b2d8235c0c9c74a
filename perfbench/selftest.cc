// Self-tests of the benchmark's own helpers; main() runs them before every
// workload, and `perfbench --selftest` runs them alone.
#include <thread>

#include "workload.h"

namespace perfbench {

namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

std::vector<std::string> RunSelfTests() {
  std::vector<std::string> fails;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) fails.push_back(what);
  };

  // Percentiles need kMinTailSamples samples beyond them.
  expect(!Percentile(Ramp(199), 0.95).has_value(),
         "p95 of 199 samples must be refused (9 beyond it)");
  expect(Percentile(Ramp(200), 0.95) == std::optional<double>(190),
         "p95 of 1..200 is 190 (10 beyond it)");
  expect(Percentile(Ramp(20), 0.5) == std::optional<double>(10),
         "p50 of 1..20 is 10");
  expect(!Percentile(Ramp(19), 0.5).has_value(),
         "p50 of 19 samples must be refused");
  expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");

  // Metric names.
  for (const char* good : {"setup_s", "sql.parse_ms", "exec.ns_per_unit",
                           "bench.trace_overhead", "9-lives"}) {
    expect(ValidMetricName(good), "a valid metric name was refused");
  }
  for (const std::string& bad : {std::string(), std::string(".hidden"),
                                 std::string("has space"), std::string("a/b"),
                                 std::string("quote\""), std::string(65, 'x')}) {
    expect(!ValidMetricName(bad), "an invalid metric name was accepted");
  }
  Report r;
  r.Add("bad name", 1, "ms");
  expect(!r.correct(), "Report must refuse an invalid metric name");

  // The result checker: row order is free, values are not.
  using skinner::Value;
  const std::vector<Row> rows = {
      {Value::Int(1), Value::String("a"), Value::Double(2.5)},
      {Value::Int(2), Value::String("b"), Value::Double(3.5)},
      {Value::Int(2), Value::Null(), Value::Double(-1)}};
  std::vector<Row> shuffled = {rows[2], rows[0], rows[1]};
  expect(CompareRows(shuffled, rows, 0).empty(), "row order must not matter");
  std::vector<Row> perturbed = rows;
  perturbed[1][2] = Value::Double(3.5000001);
  expect(!CompareRows(perturbed, rows, 1e-9).empty(),
         "one perturbed row must be rejected");
  perturbed = rows;
  perturbed[0][1] = Value::String("z");
  expect(!CompareRows(perturbed, rows, 1e-9).empty(),
         "one perturbed string must be rejected");
  std::vector<Row> dropped(rows.begin(), rows.end() - 1);
  expect(!CompareRows(dropped, rows, 0).empty(), "a dropped row must be rejected");
  perturbed = rows;
  perturbed[1][2] = Value::Double(3.5 * (1 + 1e-12));
  expect(CompareRows(perturbed, rows, 1e-9).empty(),
         "a summation-order difference must pass");

  // The durability checker: a dropped acknowledged write is caught.
  skinner::Database full;
  skinner::Database lossy;
  const std::vector<std::string> acked = {
      "CREATE TABLE t (k INT, v INT)", "INSERT INTO t VALUES (1, 10)",
      "INSERT INTO t VALUES (2, 20)", "UPDATE t SET v = 11 WHERE k = 1",
      "DELETE FROM t WHERE k = 2"};
  bool applied = true;
  for (size_t i = 0; i < acked.size(); ++i) {
    applied = applied && full.Execute(acked[i]).ok();
    if (i != 3) applied = applied && lossy.Execute(acked[i]).ok();
  }
  expect(applied, "self-test DML failed");
  expect(!CompareDatabases(&full, &lossy).empty(),
         "a dropped acknowledged write must be rejected");
  expect(lossy.Execute(acked[3]).ok() &&
             CompareDatabases(&full, &lossy).empty(),
         "equal databases must compare equal");

  // Open-loop latency runs from the due time: a 20 ms stall on the first
  // write is charged to the writes queued behind it, and they run late.
  WriteScript script(WriteScript::Kind::kJob, 1, 5000);
  WriteLog log;
  int calls = 0;
  RunOpenLoopWriter(
      &script, OpenLoop(Clock::now(), 1000),
      [&](const std::string&) {
        if (calls++ == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return true;
      },
      [] { return true; }, [] { return false; }, 3, &log);
  expect(log.latency_ms.size() == 3 && log.latency_ms[0] >= 20 &&
             log.latency_ms[1] >= 19 && log.late_ms[1] >= 19,
         "open-loop latency must be measured from the due time");

  WriteScript a(WriteScript::Kind::kTpch, 7, 500);
  WriteScript b(WriteScript::Kind::kTpch, 7, 500);
  bool same = true;
  for (int i = 0; i < 30; ++i) same = same && a.Next() == b.Next();
  expect(same, "the writer script must be a function of its seed");
  return fails;
}

}  // namespace perfbench
