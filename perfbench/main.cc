// Wall-clock benchmark of the SkinnerDB query path.
//
//   perfbench --workload {job-cold|tpch-udf} --seed N --seconds S
//             --trace {0|1} --dir SCRATCH_DIR
//   perfbench --selftest
//
// Prints one JSON line last on stdout: with --trace 0 the end-to-end
// metrics, with --trace 1 the per-layer ones (BENCHMARK.json lists both).
// perfbench/run.py builds this binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "workload.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {job-cold|tpch-udf} "
               "--seed N --seconds S --trace {0|1} --dir DIR\n"
               "       perfbench --selftest\n");
  return 2;
}

bool SelfTestsPass() {
  const std::vector<std::string> failures = perfbench::RunSelfTests();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: self-test failed: %s\n", f.c_str());
  }
  return failures.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunContext ctx;
  bool selftest_only = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--selftest") {
      selftest_only = true;
    } else if (v == nullptr) {
      return Usage();
    } else if (a == "--workload") {
      ctx.args.workload = v, ++i;
    } else if (a == "--seed") {
      ctx.args.seed = std::strtoull(v, nullptr, 10), have_seed = true, ++i;
    } else if (a == "--seconds") {
      ctx.args.seconds = std::atof(v), ++i;
    } else if (a == "--trace") {
      ctx.args.trace = std::strcmp(v, "0") != 0, ++i;
    } else if (a == "--dir") {
      ctx.args.dir = v, ++i;
    } else {
      return Usage();
    }
  }
  // The helpers are checked on every run; they cost microseconds.
  if (!SelfTestsPass()) return 3;
  if (selftest_only) {
    std::fprintf(stderr, "perfbench: self-tests passed\n");
    return 0;
  }
  if (!have_seed || ctx.args.seconds <= 0 || ctx.args.dir.empty()) {
    return Usage();
  }
  int (*run)(perfbench::RunContext*) = nullptr;
  if (ctx.args.workload == "job-cold") run = perfbench::RunJobCold;
  if (ctx.args.workload == "tpch-udf") run = perfbench::RunTpchUdf;
  if (run == nullptr) return Usage();

  const std::string base = ctx.args.dir;
  ctx.args.dir = base + "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(ctx.args.dir);
  const int rc = run(&ctx);
  perfbench::RemoveTree(ctx.args.dir);
  if (rc != 0) {
    for (const std::string& why : ctx.report.failures()) {
      std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    }
    return rc;
  }

  if (ctx.args.trace) {
    const std::string path = base + "/trace-" + ctx.args.workload + "-seed" +
                             std::to_string(ctx.args.seed) + ".json";
    if (!ctx.tracer.WriteJson(path)) {
      ctx.report.Fail("cannot write " + path);
    } else {
      std::fprintf(stderr, "perfbench: %zu spans -> %s\n",
                   ctx.tracer.spans().size(), path.c_str());
      for (const auto& [name, ts] : ctx.tracer.TotalAndSelf()) {
        std::fprintf(stderr, "  %-22s total %10.2f ms  self %10.2f ms\n",
                     name.c_str(), ts.first, ts.second);
      }
    }
  }
  for (const std::string& why : ctx.report.failures()) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  }
  std::printf("%s\n", ctx.report.ToJson().c_str());
  return 0;
}
