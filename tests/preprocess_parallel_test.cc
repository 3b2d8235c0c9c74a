// Morsel-parallel pre-processing (paper 4.5: "pre-processing is
// parallelized"): thread-count bit-identity of filter scans and
// concurrent per-column hash-index builds, the makespan cost model's
// sequential anchor, and the PreparedCache claim-all protocol under
// contention.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/prepared_statement.h"
#include "api/query_pipeline.h"
#include "api/session.h"
#include "common/hash_util.h"
#include "common/scheduler.h"
#include "exec/prepared_cache.h"
#include "exec/prepared_query.h"
#include "test_util.h"

namespace skinner {
namespace {

// ---- pipeline pre-processing bit-identity ---------------------------

/// Filter-heavy chain workload: m tables large enough for several filter
/// morsels and concurrent index builds.
void BuildFilterHeavyDb(Database* db, int m, int64_t rows, int64_t domain) {
  for (int t = 0; t < m; ++t) {
    const std::string name = "p" + std::to_string(t);
    ASSERT_TRUE(
        db->Execute("CREATE TABLE " + name + " (k INT, v INT)").ok());
    Table* table = db->catalog()->FindTable(name);
    ASSERT_NE(table, nullptr);
    for (int64_t r = 0; r < rows; ++r) {
      table->mutable_column(0)->AppendInt((r * (t + 3) + r / 5) % domain);
      table->mutable_column(1)->AppendInt(r % 97);
      table->CommitRow();
    }
  }
}

constexpr const char* kChainQuery =
    "SELECT COUNT(*) FROM p0, p1, p2 WHERE p0.k = p1.k AND p1.k = p2.k "
    "AND p0.v < 50 AND p1.v < 60 AND p2.v < 70";

/// Order-sensitive fingerprint of one table artifact: the surviving-row
/// vector plus every frozen index layout.
uint64_t ArtifactFingerprint(const TableArtifact& a) {
  uint64_t h = 0x5ca1ab1eull ^ a.filtered.size();
  for (int32_t r : a.filtered) {
    h = HashMix64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(r)));
  }
  std::vector<int> cols;
  cols.reserve(a.indexes.size());
  for (const auto& [col, idx] : a.indexes) cols.push_back(col);
  std::sort(cols.begin(), cols.end());
  for (int col : cols) {
    h = HashMix64(h ^ static_cast<uint64_t>(col) ^
                  a.indexes.at(col)->Fingerprint());
  }
  return h;
}

struct PreparedProbe {
  std::vector<uint64_t> artifact_fp;  // per FROM table
  uint64_t preprocess_cost = 0;
};

PreparedProbe ProbePrepare(Database* db, const std::string& sql,
                           bool parallel, int num_threads) {
  QueryPipeline pipe(db->catalog(), db->udfs(), db->stats_manager(),
                     /*cache=*/nullptr, db->scheduler());
  auto stmt = pipe.Parse(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().message();
  auto bound = pipe.Bind(std::move(stmt.value()));
  EXPECT_TRUE(bound.ok()) << bound.status().message();
  ExecOptions opts;
  opts.parallel_preprocess = parallel;
  opts.num_threads = num_threads;
  auto stage = pipe.Prepare(std::move(bound.value()), opts);
  EXPECT_TRUE(stage.ok()) << stage.status().message();
  PreparedProbe probe;
  probe.preprocess_cost = stage.value().preprocess_cost;
  for (const auto& art : stage.value().pq->shared_data()->artifacts) {
    probe.artifact_fp.push_back(ArtifactFingerprint(*art));
  }
  return probe;
}

// The tentpole property: every worker count — and the sequential path —
// produces byte-identical artifacts (same surviving rows, same frozen
// index layout). Only wall time may vary with the pool.
TEST(ParallelPreprocessTest, ArtifactsBitIdenticalAcrossWorkerCounts) {
  Database db;
  BuildFilterHeavyDb(&db, 3, 6000, 256);

  PreparedProbe seq = ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  ASSERT_EQ(seq.artifact_fp.size(), 3u);
  for (int threads : {1, 2, 8}) {
    PreparedProbe par = ProbePrepare(&db, kChainQuery, /*parallel=*/true,
                                     threads);
    ASSERT_EQ(par.artifact_fp.size(), seq.artifact_fp.size());
    for (size_t t = 0; t < seq.artifact_fp.size(); ++t) {
      EXPECT_EQ(par.artifact_fp[t], seq.artifact_fp[t])
          << "table " << t << " at " << threads << " workers";
    }
  }
}

// The makespan cost model's anchor: at a configured width of 1 the
// parallel path charges exactly the sequential pre-processing cost
// (list-schedule makespan over one machine == sum).
TEST(ParallelPreprocessTest, WidthOneCostMatchesSequential) {
  Database db;
  BuildFilterHeavyDb(&db, 3, 6000, 256);
  PreparedProbe seq = ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  PreparedProbe par1 = ProbePrepare(&db, kChainQuery, /*parallel=*/true, 1);
  EXPECT_GT(seq.preprocess_cost, 0u);
  EXPECT_EQ(par1.preprocess_cost, seq.preprocess_cost);
  // Wider configured widths overlap independent jobs: never more
  // expensive than sequential, and deterministic for a fixed width.
  PreparedProbe par4 = ProbePrepare(&db, kChainQuery, /*parallel=*/true, 4);
  EXPECT_LE(par4.preprocess_cost, seq.preprocess_cost);
  PreparedProbe par4b = ProbePrepare(&db, kChainQuery, /*parallel=*/true, 4);
  EXPECT_EQ(par4b.preprocess_cost, par4.preprocess_cost);
}

/// String/UDF variant of the filter-heavy workload: every table carries a
/// STRING column that spans several 4096-row morsels and a registered
/// string UDF, so the parallel filter reads the shared StringPool from
/// every morsel worker at once.
void BuildStringUdfDb(Database* db, int m, int64_t rows) {
  ASSERT_TRUE(db->udfs()
                  ->Register("str_after", 2, DataType::kInt64,
                             [](const std::vector<Value>& a) {
                               if (a[0].is_null() || a[1].is_null()) {
                                 return Value::Bool(false);
                               }
                               return Value::Bool(a[0].AsString() >
                                                  a[1].AsString());
                             })
                  .ok());
  for (int t = 0; t < m; ++t) {
    const std::string name = "s" + std::to_string(t);
    ASSERT_TRUE(
        db->Execute("CREATE TABLE " + name + " (k INT, d STRING)").ok());
    Table* table = db->catalog()->FindTable(name);
    ASSERT_NE(table, nullptr);
    StringPool* pool = db->catalog()->string_pool();
    for (int64_t r = 0; r < rows; ++r) {
      table->mutable_column(0)->AppendInt((r * (t + 5) + r / 7) % 512);
      table->mutable_column(1)->AppendString(
          "d" + std::to_string(1000 + (r * 31 + t) % 900), pool);
      table->CommitRow();
    }
  }
}

constexpr const char* kStringUdfQuery =
    "SELECT COUNT(*) FROM s0, s1, s2 WHERE s0.k = s1.k AND s1.d = s2.d "
    "AND str_after(s0.d, 'd1300') AND str_after(s1.d, 'd1450') "
    "AND str_after(s2.d, 'd1100')";

// The bit-identity and width-1 cost anchors over string columns and UDF
// predicates: the parallel filter's pool reads must not change a byte.
TEST(ParallelPreprocessTest, StringUdfArtifactsBitIdenticalAcrossWidths) {
  Database db;
  BuildStringUdfDb(&db, 3, 20000);  // 5 morsels per table

  PreparedProbe seq =
      ProbePrepare(&db, kStringUdfQuery, /*parallel=*/false, 1);
  ASSERT_EQ(seq.artifact_fp.size(), 3u);
  EXPECT_GT(seq.preprocess_cost, 0u);
  for (int threads : {1, 2, 4, 8}) {
    PreparedProbe par =
        ProbePrepare(&db, kStringUdfQuery, /*parallel=*/true, threads);
    EXPECT_EQ(par.artifact_fp, seq.artifact_fp) << threads << " workers";
    if (threads == 1) {
      EXPECT_EQ(par.preprocess_cost, seq.preprocess_cost);
    }
  }
}

// One prepare path: at width 4 an uncached Query, a cached Query and a
// prepared statement with one `?` all build their tables through the same
// builder, so they produce the same artifacts and charge the same cost.
TEST(ParallelPreprocessTest, CachedAndStatementPreparesMatchUncached) {
  Database db;
  // 5 filter morsels per table; a wide key domain keeps the join small.
  BuildFilterHeavyDb(&db, 3, 20000, 16384);
  ExecOptions opts;
  opts.parallel_preprocess = true;
  opts.num_threads = 4;

  const PreparedProbe uncached =
      ProbePrepare(&db, kChainQuery, /*parallel=*/true, 4);
  auto plain = db.Query(kChainQuery, opts);
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  EXPECT_EQ(plain.value().stats.preprocess_cost, uncached.preprocess_cost);

  // Fingerprints of the cached artifacts of p0..p2 under `signature`; only
  // p0's filter carries the statement's parameter.
  auto cached_fps = [&db](const std::string& signature,
                          const std::string& p0_values) {
    std::vector<uint64_t> fps;
    for (int t = 0; t < 3; ++t) {
      const Table* table = db.catalog()->FindTable("p" + std::to_string(t));
      PreparedCache::TableArtifactPtr art = db.prepared_cache()->LookupTable(
          TableArtifactKey(signature, t, /*build_hash_indexes=*/true,
                           t == 0 ? p0_values : std::string()),
          TableStamp{table->id(), table->data_version()});
      EXPECT_NE(art, nullptr) << "table " << t;
      fps.push_back(art == nullptr ? 0 : ArtifactFingerprint(*art));
    }
    return fps;
  };

  ExecOptions cached = opts;
  cached.use_prepared_cache = true;
  auto literal = db.Query(kChainQuery, cached);
  ASSERT_TRUE(literal.ok()) << literal.status().message();
  EXPECT_EQ(literal.value().stats.tables_reprepared, 3);
  EXPECT_EQ(literal.value().stats.preprocess_cost, uncached.preprocess_cost);
  auto bound = db.Bind(kChainQuery);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(cached_fps(ComputeQuerySignature(*bound.value()), ""),
            uncached.artifact_fp);

  db.prepared_cache()->Clear();
  auto session = db.CreateSession(opts);
  auto stmt = session->Prepare(
      "SELECT COUNT(*) FROM p0, p1, p2 WHERE p0.k = p1.k AND p1.k = p2.k "
      "AND p0.v < ? AND p1.v < 60 AND p2.v < 70");
  ASSERT_TRUE(stmt.ok()) << stmt.status().message();
  auto executed = stmt.value()->Execute({Value::Int(50)});
  ASSERT_TRUE(executed.ok()) << executed.status().message();
  EXPECT_EQ(executed.value().stats.tables_reprepared, 3);
  EXPECT_EQ(executed.value().stats.preprocess_cost, uncached.preprocess_cost);
  std::string p0_values;
  AppendValueSignature(Value::Int(50), &p0_values);
  p0_values.push_back(';');
  EXPECT_EQ(cached_fps(stmt.value()->template_signature(), p0_values),
            uncached.artifact_fp);
  EXPECT_EQ(testing::CanonicalRows(executed.value().result),
            testing::CanonicalRows(plain.value().result));
}

// Mask-aware morsel filtering (PR 7) must be free for fully-valid tables:
// a DELETE that matches nothing allocates no validity mask, so the scan
// takes the exact pre-mutation path and charges the exact pre-mutation
// cost. After a real DELETE the masked rows are charged their row visit
// but skip predicate evaluation, so the cost drops — deterministically.
TEST(ParallelPreprocessTest, MaskAwareFilterCostAnchors) {
  Database db;
  BuildFilterHeavyDb(&db, 3, 6000, 256);
  PreparedProbe before_seq =
      ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  PreparedProbe before_par4 =
      ProbePrepare(&db, kChainQuery, /*parallel=*/true, 4);

  // No-match DELETE: no mask is allocated, nothing may change — not even
  // by the one-tick-per-row accounting difference a mask would introduce.
  ASSERT_TRUE(db.Execute("DELETE FROM p0 WHERE v < 0").ok());
  EXPECT_FALSE(db.catalog()->FindTable("p0")->has_deletes());
  PreparedProbe nomatch_seq =
      ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  PreparedProbe nomatch_par4 =
      ProbePrepare(&db, kChainQuery, /*parallel=*/true, 4);
  EXPECT_EQ(nomatch_seq.preprocess_cost, before_seq.preprocess_cost);
  EXPECT_EQ(nomatch_par4.preprocess_cost, before_par4.preprocess_cost);
  EXPECT_EQ(nomatch_seq.artifact_fp, before_seq.artifact_fp);

  // Real DELETE: masked rows cost one visit each and skip their predicate,
  // so pre-processing gets cheaper, never dearer — and stays deterministic.
  ASSERT_TRUE(db.Execute("DELETE FROM p0 WHERE v < 10").ok());
  EXPECT_TRUE(db.catalog()->FindTable("p0")->has_deletes());
  PreparedProbe after_seq =
      ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  PreparedProbe after_seq2 =
      ProbePrepare(&db, kChainQuery, /*parallel=*/false, 1);
  EXPECT_LT(after_seq.preprocess_cost, before_seq.preprocess_cost);
  EXPECT_EQ(after_seq2.preprocess_cost, after_seq.preprocess_cost);
  EXPECT_NE(after_seq.artifact_fp[0], before_seq.artifact_fp[0]);
  // The width-1 anchor still holds on a masked table.
  PreparedProbe after_par1 =
      ProbePrepare(&db, kChainQuery, /*parallel=*/true, 1);
  EXPECT_EQ(after_par1.preprocess_cost, after_seq.preprocess_cost);
}

// Randomized end-to-end property: parallel pre-processing never changes a
// query's result, across schemas, predicates and join shapes.
TEST(ParallelPreprocessTest, RandomizedResultsMatchSequential) {
  testing::RandomDbSpec spec;
  spec.num_tables = 4;
  spec.min_rows = 30;
  spec.max_rows = 90;
  spec.key_domain = 12;
  spec.seed = 11;
  Database db;
  std::vector<std::string> tables;
  ASSERT_TRUE(testing::BuildRandomDb(&db, spec, &tables).ok());

  Rng rng(77);
  for (int iter = 0; iter < 25; ++iter) {
    const std::string sql = testing::RandomCountQuery(&rng, tables);
    ExecOptions seq;
    seq.parallel_preprocess = false;
    ExecOptions par;
    par.parallel_preprocess = true;
    par.num_threads = 8;
    EXPECT_EQ(testing::RunCount(&db, sql, par),
              testing::RunCount(&db, sql, seq))
        << sql;
  }
}

// ---- claim-all protocol ---------------------------------------------

// The deadlock shape the protocol exists for: two builders each owning
// one key of the other's set. Under try-acquire/publish-all/wait both
// make progress; blocking sorted acquisition would hang here.
TEST(ClaimAllProtocolTest, CrossOwnershipRendezvous) {
  PreparedCache cache;
  const TableStamp stamp{1, 1};
  const std::string ka = "table-A";
  const std::string kb = "table-B";

  // Deterministic cross-ownership (all claims taken before any thread
  // starts): thread 1 owns A and holds B's token, thread 2 owns B and
  // holds A's token.
  PreparedCache::TableTryClaim a1 = cache.TryAcquireTable(ka, stamp);
  PreparedCache::TableTryClaim b2 = cache.TryAcquireTable(kb, stamp);
  ASSERT_TRUE(a1.builder);
  ASSERT_TRUE(b2.builder);
  PreparedCache::TableTryClaim b1 = cache.TryAcquireTable(kb, stamp);
  PreparedCache::TableTryClaim a2 = cache.TryAcquireTable(ka, stamp);
  ASSERT_FALSE(b1.builder);
  ASSERT_FALSE(a2.builder);
  ASSERT_EQ(b1.artifact, nullptr);
  ASSERT_NE(b1.pending, nullptr);
  ASSERT_NE(a2.pending, nullptr);

  auto run = [&cache, &stamp](const std::string& own_key,
                              const std::string& other_key,
                              const std::shared_ptr<void>& other_pending,
                              int32_t tag) -> int32_t {
    // Publish every owned claim FIRST...
    auto art = std::make_shared<TableArtifact>();
    art->filtered = {tag};
    cache.PublishTable(own_key, stamp, art);
    // ...and only then redeem the peer's token.
    PreparedCache::TableClaim got =
        cache.WaitTable(other_key, stamp, other_pending);
    EXPECT_FALSE(got.builder);
    EXPECT_NE(got.artifact, nullptr);
    if (got.artifact == nullptr || got.artifact->filtered.empty()) return -1;
    return got.artifact->filtered[0];
  };

  int32_t from_b = 0;
  int32_t from_a = 0;
  std::thread t1([&] { from_b = run(ka, kb, b1.pending, 100); });
  std::thread t2([&] { from_a = run(kb, ka, a2.pending, 200); });
  t1.join();
  t2.join();
  EXPECT_EQ(from_b, 200);  // thread 1 received thread 2's artifact
  EXPECT_EQ(from_a, 100);
}

TEST(ClaimAllProtocolTest, WaitAfterAbandonFallsBackToBuilder) {
  PreparedCache cache;
  const TableStamp stamp{1, 1};
  PreparedCache::TableTryClaim owner = cache.TryAcquireTable("k", stamp);
  ASSERT_TRUE(owner.builder);
  PreparedCache::TableTryClaim waiter = cache.TryAcquireTable("k", stamp);
  ASSERT_FALSE(waiter.builder);
  ASSERT_NE(waiter.pending, nullptr);

  std::thread t([&] { cache.AbandonTable("k"); });
  PreparedCache::TableClaim got = cache.WaitTable("k", stamp, waiter.pending);
  t.join();
  // The abandon promoted the waiter: it must now build and publish.
  ASSERT_TRUE(got.builder);
  cache.PublishTable("k", stamp, std::make_shared<TableArtifact>());
  EXPECT_NE(cache.LookupTable("k", stamp), nullptr);
}

// Contention end-to-end: N sessions execute the same parameterized
// template concurrently with parallel pre-processing on. Claim-all must
// (a) terminate — no deadlock between builders racing on the same table
// set — and (b) deduplicate: each table's artifact is built exactly once.
TEST(ClaimAllProtocolTest, ConcurrentExecutionsDedupArtifactBuilds) {
  Database db;
  BuildFilterHeavyDb(&db, 3, 3000, 128);
  const int kThreads = 6;
  const std::string tmpl =
      "SELECT COUNT(*) FROM p0, p1, p2 WHERE p0.k = p1.k AND p1.k = p2.k "
      "AND p0.v < ?";

  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::unique_ptr<PreparedStatement>> stmts;
  for (int i = 0; i < kThreads; ++i) {
    auto session = db.CreateSession();
    ExecOptions* defaults = session->mutable_defaults();
    defaults->use_prepared_cache = true;
    defaults->parallel_preprocess = true;
    defaults->num_threads = 4;
    auto stmt = session->Prepare(tmpl);
    ASSERT_TRUE(stmt.ok()) << stmt.status().message();
    stmts.push_back(std::move(stmt.value()));
    sessions.push_back(std::move(session));
  }

  std::vector<QueryOutput> outs(kThreads);
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      auto out = stmts[static_cast<size_t>(i)]->Execute({Value::Int(50)});
      if (!out.ok()) {
        failures.fetch_add(1);
        return;
      }
      outs[static_cast<size_t>(i)] = std::move(out.value());
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  int reprepared = 0;
  int from_cache = 0;
  const std::string rows0 = testing::CanonicalRows(outs[0].result);
  for (const QueryOutput& out : outs) {
    EXPECT_EQ(out.stats.tables_prepared_from_cache +
                  out.stats.tables_reprepared,
              3);
    reprepared += out.stats.tables_reprepared;
    from_cache += out.stats.tables_prepared_from_cache;
    EXPECT_EQ(testing::CanonicalRows(out.result), rows0);
  }
  // Exactly one execution built each of the 3 artifacts; everyone else
  // rendezvoused on the in-flight builds or hit the cache.
  EXPECT_EQ(reprepared, 3);
  EXPECT_EQ(from_cache, 3 * kThreads - 3);

  // A new parameter value re-prepares only the param-filtered table.
  auto out2 = stmts[0]->Execute({Value::Int(80)});
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2.value().stats.tables_reprepared, 1);
  EXPECT_EQ(out2.value().stats.tables_prepared_from_cache, 2);
}

}  // namespace
}  // namespace skinner
