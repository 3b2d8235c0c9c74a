// Property tests for search-parallel Skinner-C (paper Section 4.4): for
// any worker count, the engine must produce the exact same join result —
// the canonical (sorted) tuple export is bit-identical and result_tuples
// agrees — on adversarial torture-generator workloads and on the
// duplicate-heavy JOB queries. Runs under the ThreadSanitizer CI job,
// which exercises the per-slice barrier, the per-worker result buffers,
// and the per-worker clocks for races.

#include <gtest/gtest.h>

#include <algorithm>

#include "benchgen/job.h"
#include "benchgen/torture.h"
#include "engine/forced_order.h"
#include "exec/prepared_query.h"
#include "skinner/skinner_c.h"
#include "test_util.h"

namespace skinner {
namespace {

using ::skinner::bench::CleanupTorture;
using ::skinner::bench::GenerateTorture;
using ::skinner::bench::TortureMode;
using ::skinner::bench::TortureShape;
using ::skinner::bench::TortureSpec;

struct RunOutput {
  std::vector<PosTuple> tuples;  // canonical order
  uint64_t result_tuples = 0;
  bool timed_out = false;
};

/// A pre-processed query plus the bound query and analysis it points to.
struct Prepared {
  std::unique_ptr<BoundQuery> bound;
  std::unique_ptr<QueryInfo> info;
  std::unique_ptr<PreparedQuery> pq;  // null on failure
};

Prepared PrepareSql(Database* db, const std::string& sql, VirtualClock* clock) {
  Prepared p;
  auto bound = db->Bind(sql);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  if (!bound.ok()) return p;
  p.bound = bound.MoveValue();
  auto info = QueryInfo::Analyze(*p.bound);
  EXPECT_TRUE(info.ok());
  if (!info.ok()) return p;
  p.info = std::make_unique<QueryInfo>(info.MoveValue());
  auto pq = PreparedQuery::Prepare(p.bound.get(), p.info.get(),
                                   db->catalog()->string_pool(), clock, {});
  EXPECT_TRUE(pq.ok());
  if (pq.ok()) p.pq = pq.MoveValue();
  return p;
}

RunOutput RunSkinnerC(Database* db, const std::string& sql, int num_threads,
                      int64_t slice_budget) {
  RunOutput out;
  VirtualClock clock;
  Prepared prep = PrepareSql(db, sql, &clock);
  if (prep.pq == nullptr) return out;
  const PreparedQuery* pq = prep.pq.get();

  SkinnerCOptions opts;
  opts.num_threads = num_threads;
  opts.slice_budget = slice_budget;
  SkinnerCEngine engine(pq, opts);
  ResultSet rs(pq->num_tables());
  EXPECT_TRUE(engine.Run(&rs).ok());
  out.tuples = rs.ToVector();
  out.result_tuples = engine.stats().result_tuples;
  out.timed_out = engine.stats().timed_out;
  return out;
}

/// The sorted distinct join result of a forced replay of `sql` in table
/// order: the reference every Skinner-C configuration must export.
std::vector<PosTuple> ForcedReplaySorted(Database* db, const std::string& sql) {
  VirtualClock clock;
  Prepared prep = PrepareSql(db, sql, &clock);
  if (prep.pq == nullptr) return {};
  const PreparedQuery* pq = prep.pq.get();
  std::vector<int> order(static_cast<size_t>(pq->num_tables()));
  for (size_t t = 0; t < order.size(); ++t) order[t] = static_cast<int>(t);
  ResultSet replayed(pq->num_tables());
  EXPECT_TRUE(
      ExecuteForcedOrder(*pq, order, ForcedExecOptions{}, &replayed).completed);
  std::vector<PosTuple> out = replayed.ToVector();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The JOB workload, generated once: small enough for the TSan job, large
/// enough that Skinner-C re-emits tuples on q05a/q06a/q08a.
Database* JobDb() {
  static Database* db = [] {
    auto* d = new Database;
    bench::JobSpec spec;
    spec.num_titles = 600;
    EXPECT_TRUE(bench::GenerateJob(d, spec).ok());
    return d;
  }();
  return db;
}

const bench::JobWorkload& Job() {
  static const bench::JobWorkload workload = bench::JobQueries();
  return workload;
}

const std::string& JobSql(const std::string& name) {
  const bench::JobWorkload& w = Job();
  auto it = std::find(w.names.begin(), w.names.end(), name);
  EXPECT_NE(it, w.names.end()) << name;
  return w.queries[static_cast<size_t>(it - w.names.begin())];
}

class ParallelTortureTest
    : public ::testing::TestWithParam<std::tuple<TortureMode, uint64_t>> {};

TEST_P(ParallelTortureTest, ThreadCountsAgreeBitIdentical) {
  const auto [mode, seed] = GetParam();
  Database db;
  TortureSpec spec;
  spec.mode = mode;
  spec.shape = seed % 2 == 0 ? TortureShape::kChain : TortureShape::kStar;
  spec.num_tables = 4;
  spec.rows_per_table = 40;
  spec.bad_fanout = 3;
  spec.seed = seed;
  auto inst = GenerateTorture(&db, spec);
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();

  // A small budget forces many slices (and frontier-based re-emission,
  // which the export must deduplicate identically for every thread count).
  for (int64_t budget : {7, 500}) {
    RunOutput base = RunSkinnerC(&db, inst.value().sql, 1, budget);
    ASSERT_FALSE(base.timed_out);
    for (int threads : {2, 8}) {
      RunOutput par = RunSkinnerC(&db, inst.value().sql, threads, budget);
      ASSERT_FALSE(par.timed_out);
      EXPECT_EQ(base.result_tuples, par.result_tuples)
          << "threads=" << threads << " budget=" << budget;
      EXPECT_EQ(base.tuples, par.tuples)
          << "threads=" << threads << " budget=" << budget;
    }
  }
  CleanupTorture(&db, inst.value());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ParallelTortureTest,
    ::testing::Combine(::testing::Values(TortureMode::kUdf,
                                         TortureMode::kCorrelated,
                                         TortureMode::kTrivial),
                       ::testing::Values(11u, 12u)));

// Skewed-leftmost-table torture workload for chunk stealing: the first
// `hot_keys * hot_fanout` positions of every table carry explosive-fanout
// keys (clustered, so they land in the first chunks), the tail is unique
// keys with fanout <= 1. The hot chunks get split and stolen, and the
// bit-identical result contract must hold for any thread count and
// budget.
void BuildSkewedDb(Database* db, int num_tables, int hot_keys,
                   int64_t hot_fanout, int64_t tail_rows) {
  for (int t = 0; t < num_tables; ++t) {
    std::string name = "s" + std::to_string(t);
    ASSERT_TRUE(
        db->Execute("CREATE TABLE " + name + " (k INT, v INT)").ok());
    Table* table = db->catalog()->FindTable(name);
    int64_t r = 0;
    for (int k = 0; k < hot_keys; ++k) {
      for (int64_t c = 0; c < hot_fanout; ++c, ++r) {
        table->mutable_column(0)->AppendInt(k);
        table->mutable_column(1)->AppendInt(r);
        table->CommitRow();
      }
    }
    for (int64_t i = 0; i < tail_rows; ++i, ++r) {
      table->mutable_column(0)->AppendInt(1000 + i);
      table->mutable_column(1)->AppendInt(r);
      table->CommitRow();
    }
  }
}

std::string SkewedChainSql(int num_tables) {
  std::string sql = "SELECT COUNT(*) FROM ";
  for (int t = 0; t < num_tables; ++t) {
    if (t > 0) sql += ", ";
    sql += "s" + std::to_string(t);
  }
  sql += " WHERE ";
  for (int t = 0; t + 1 < num_tables; ++t) {
    if (t > 0) sql += " AND ";
    sql += "s" + std::to_string(t) + ".k = s" + std::to_string(t + 1) + ".k";
  }
  return sql;
}

TEST(SkewedStealingTest, ThreadCountsAgreeBitIdentical) {
  Database skewed;
  BuildSkewedDb(&skewed, 4, /*hot_keys=*/4, /*hot_fanout=*/4,
                /*tail_rows=*/70);
  struct Input {
    std::string name;
    Database* db;
    std::string sql;
  };
  std::vector<Input> inputs = {{"skewed", &skewed, SkewedChainSql(4)}};
  // The JOB queries with the most re-emission: Skinner-C appends every
  // emit and must drop the duplicates at export.
  for (const char* name : {"q05a", "q06a", "q08a"}) {
    inputs.push_back({name, JobDb(), JobSql(name)});
  }

  for (const Input& in : inputs) {
    const std::vector<PosTuple> want = ForcedReplaySorted(in.db, in.sql);
    ASSERT_FALSE(want.empty()) << in.name;
    // Tiny budgets force many slices, chunk suspensions mid-hot-region,
    // frontier-based re-emission, and lots of steals near the endgame.
    for (int64_t budget : {7, 300}) {
      for (int threads : {1, 2, 4, 8}) {
        RunOutput got = RunSkinnerC(in.db, in.sql, threads, budget);
        const std::string where = in.name +
                                  " budget=" + std::to_string(budget) +
                                  " threads=" + std::to_string(threads);
        ASSERT_FALSE(got.timed_out) << where;
        EXPECT_EQ(got.result_tuples, want.size()) << where;
        EXPECT_EQ(got.tuples, want) << where;
      }
    }
  }
}

// Chunk stealing is schedule-nondeterministic internally (which worker
// runs which chunk varies), so hammer the same configuration repeatedly:
// the exported canonical result must be identical on every repetition.
TEST(SkewedStealingTest, RepeatedRunsStayBitIdentical) {
  Database db;
  BuildSkewedDb(&db, 3, /*hot_keys=*/3, /*hot_fanout=*/5, /*tail_rows=*/50);
  const std::string sql = SkewedChainSql(3);
  RunOutput base = RunSkinnerC(&db, sql, 1, 11);
  ASSERT_GT(base.result_tuples, 0u);
  for (int rep = 0; rep < 5; ++rep) {
    RunOutput par = RunSkinnerC(&db, sql, 8, 11);
    EXPECT_EQ(base.tuples, par.tuples) << "rep=" << rep;
  }
}

// Random SPJ databases (the cross-engine property harness) under thread
// counts 1/2/8: counts agree with the single-threaded engine through the
// full Database API, including post-processing.
TEST(ParallelSkinnerApiTest, RandomQueriesAgreeAcrossThreadCounts) {
  using ::skinner::testing::BuildRandomDb;
  using ::skinner::testing::RandomCountQuery;
  using ::skinner::testing::RandomDbSpec;
  using ::skinner::testing::RunCount;

  for (uint64_t seed : {1u, 2u, 3u}) {
    Database db;
    RandomDbSpec spec;
    spec.seed = seed;
    spec.num_tables = 4;
    std::vector<std::string> tables;
    ASSERT_TRUE(BuildRandomDb(&db, spec, &tables).ok());
    Rng rng(seed * 977 + 5);
    for (int q = 0; q < 4; ++q) {
      std::string sql = RandomCountQuery(&rng, tables);
      ExecOptions opts;
      opts.engine = EngineKind::kSkinnerC;
      opts.slice_budget = 9;
      opts.skinner_threads = 1;
      int64_t count1 = RunCount(&db, sql, opts);
      for (int threads : {2, 8}) {
        opts.skinner_threads = threads;
        EXPECT_EQ(count1, RunCount(&db, sql, opts))
            << sql << " threads=" << threads;
      }
    }
  }
}

// The reported final order is one that ran: on every JOB query it is a
// key of order_selections. At one thread, two runs with one seed report
// the same order; at more, the slice sequence depends on which worker
// claims which chunk, so only the first property is checked there.
TEST(JobSkinnerCTest, FinalOrderIsAnOrderThatRan) {
  const bench::JobWorkload& w = Job();
  for (size_t q = 0; q < w.queries.size(); ++q) {
    for (int threads : {1, 4}) {
      const std::string where =
          w.names[q] + " threads=" + std::to_string(threads);
      ExecOptions opts;
      opts.engine = EngineKind::kSkinnerC;
      opts.skinner_threads = threads;
      auto first = JobDb()->Query(w.queries[q], opts);
      auto second = JobDb()->Query(w.queries[q], opts);
      ASSERT_TRUE(first.ok() && second.ok()) << where;
      for (const ExecutionStats* s :
           {&first.value().stats, &second.value().stats}) {
        EXPECT_EQ(s->order_selections.count(s->join_order), 1u) << where;
      }
      if (threads == 1) {
        EXPECT_EQ(first.value().stats.join_order,
                  second.value().stats.join_order)
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace skinner
