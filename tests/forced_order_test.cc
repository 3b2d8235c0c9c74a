#include "engine/forced_order.h"

#include <gtest/gtest.h>

#include "baselines/eddy.h"
#include "sql/parser.h"

namespace skinner {
namespace {

class ForcedOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = catalog_.CreateTable("a", Schema({{"k", DataType::kInt64},
                                               {"v", DataType::kInt64}}));
    auto b = catalog_.CreateTable("b", Schema({{"k", DataType::kInt64},
                                               {"w", DataType::kInt64}}));
    auto c = catalog_.CreateTable("c", Schema({{"k", DataType::kInt64}}));
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    for (int i = 0; i < 6; ++i) {
      a.value()->mutable_column(0)->AppendInt(i % 3);
      a.value()->mutable_column(1)->AppendInt(i);
      a.value()->CommitRow();
    }
    for (int i = 0; i < 4; ++i) {
      b.value()->mutable_column(0)->AppendInt(i % 3);
      b.value()->mutable_column(1)->AppendInt(i * 10);
      b.value()->CommitRow();
    }
    for (int i = 0; i < 3; ++i) {
      c.value()->mutable_column(0)->AppendInt(i);
      c.value()->CommitRow();
    }
  }

  void Prepare(const std::string& sql) {
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok());
    auto q = BindSelect(stmt.value().select.get(), &catalog_, &udfs_);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    query_ = std::make_unique<BoundQuery>(q.MoveValue());
    info_ = std::make_unique<QueryInfo>(QueryInfo::Analyze(*query_).MoveValue());
    auto pq = PreparedQuery::Prepare(query_.get(), info_.get(),
                                     catalog_.string_pool(), &clock_, {});
    ASSERT_TRUE(pq.ok());
    pq_ = pq.MoveValue();
  }

  Catalog catalog_;
  UdfRegistry udfs_;
  VirtualClock clock_;
  std::unique_ptr<BoundQuery> query_;
  std::unique_ptr<QueryInfo> info_;
  std::unique_ptr<PreparedQuery> pq_;
};

TEST_F(ForcedOrderTest, BuildsStepsWithDrivers) {
  Prepare(
      "SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k AND "
      "a.v < b.w");
  auto steps = BuildJoinSteps(*pq_, {0, 1, 2});
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].table, 0);
  EXPECT_TRUE(steps[0].eq.empty());
  EXPECT_EQ(steps[1].table, 1);
  ASSERT_EQ(steps[1].eq.size(), 1u);
  EXPECT_GE(steps[1].driver, 0);            // index-backed
  EXPECT_EQ(steps[1].checks.size(), 1u);    // a.v < b.w
  EXPECT_EQ(steps[2].table, 2);
  EXPECT_EQ(steps[2].eq.size(), 1u);
}

TEST_F(ForcedOrderTest, StepsDependOnOrder) {
  Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.k = c.k");
  auto steps = BuildJoinSteps(*pq_, {2, 1, 0});
  EXPECT_EQ(steps[0].table, 2);
  EXPECT_TRUE(steps[0].eq.empty());
  // b joins c via b.k = c.k at position 1; a via a.k = b.k at position 2.
  EXPECT_EQ(steps[1].table, 1);
  EXPECT_EQ(steps[1].eq.size(), 1u);
  EXPECT_EQ(steps[2].table, 0);
  EXPECT_EQ(steps[2].eq.size(), 1u);
}

TEST_F(ForcedOrderTest, CursorProbesMatchingPositions) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  JoinCursor cursor(pq_.get(), BuildJoinSteps(*pq_, {0, 1}));
  cursor.Bind(0, 0);  // a row 0, k = 0
  // b rows with k=0: base rows/positions 0 and 3.
  int64_t p = cursor.FirstCandidate(1, 0);
  EXPECT_EQ(p, 0);
  p = cursor.NextCandidate(1, p);
  EXPECT_EQ(p, 3);
  EXPECT_EQ(cursor.NextCandidate(1, p), -1);
}

TEST_F(ForcedOrderTest, FirstCandidateHonorsLowerBound) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  JoinCursor cursor(pq_.get(), BuildJoinSteps(*pq_, {0, 1}));
  cursor.Bind(0, 0);
  EXPECT_EQ(cursor.FirstCandidate(1, 1), 3);  // skip position 0
  EXPECT_EQ(cursor.FirstCandidate(1, 4), -1);
}

TEST_F(ForcedOrderTest, ScanWhenNoIndex) {
  ASSERT_TRUE(udfs_.Register("always", 2, DataType::kInt64,
                             [](const std::vector<Value>&) {
                               return Value::Int(1);
                             })
                  .ok());
  Prepare("SELECT COUNT(*) FROM a, b WHERE always(a.k, b.k)");
  JoinCursor cursor(pq_.get(), BuildJoinSteps(*pq_, {0, 1}));
  ASSERT_EQ(cursor.steps()[1].driver, -1);
  cursor.Bind(0, 0);
  // Scan: every position is a candidate.
  EXPECT_EQ(cursor.FirstCandidate(1, 0), 0);
  EXPECT_EQ(cursor.NextCandidate(1, 0), 1);
  EXPECT_EQ(cursor.NextCandidate(1, 3), -1);  // card = 4
}

TEST_F(ForcedOrderTest, CheckEvaluatesResidualPredicates) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v < b.w");
  JoinCursor cursor(pq_.get(), BuildJoinSteps(*pq_, {0, 1}));
  cursor.Bind(0, 3);                 // a: k=0, v=3
  int64_t p = cursor.FirstCandidate(1, 0);  // b pos 0: k=0, w=0
  cursor.Bind(1, p);
  EXPECT_FALSE(cursor.Check(1));     // 3 < 0 fails
  p = cursor.NextCandidate(1, p);    // b pos 3: k=0, w=30
  cursor.Bind(1, p);
  EXPECT_TRUE(cursor.Check(1));      // 3 < 30
}

TEST_F(ForcedOrderTest, MultipleEquiPredsOneDriverRestChecks) {
  // b gains (k=1, w=0), so b.w = 0 matches two b rows with different k.
  // b.w keeps 4 distinct keys (0, 10, 20, 30) against b.k's 3, so the
  // more selective a.v = b.w drives and a.k = b.k is checked.
  Table* b = catalog_.FindTable("b");
  b->mutable_column(0)->AppendInt(1);
  b->mutable_column(1)->AppendInt(0);
  b->CommitRow();
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v = b.w");
  auto steps = BuildJoinSteps(*pq_, {0, 1});
  ASSERT_EQ(steps[1].eq.size(), 2u);
  ASSERT_EQ(steps[1].driver, 1);
  EXPECT_EQ(steps[1].eq[1].this_col, 1);  // b.w
  JoinCursor cursor(pq_.get(), steps);
  // a row 0: k=0,v=0. b.w = 0 at pos 0 (k=0) passes both; pos 4 (k=1)
  // fails the non-driver equality.
  cursor.Bind(0, 0);
  int64_t p = cursor.FirstCandidate(1, 0);
  EXPECT_EQ(p, 0);
  cursor.Bind(1, p);
  EXPECT_TRUE(cursor.Check(1));
  p = cursor.NextCandidate(1, p);
  EXPECT_EQ(p, 4);
  cursor.Bind(1, p);
  EXPECT_FALSE(cursor.Check(1));
  EXPECT_EQ(cursor.NextCandidate(1, p), -1);
}

TEST_F(ForcedOrderTest, DriverTieKeepsWhereOrder) {
  // Both of b's equalities probe the one index on b.k: a tie, so the
  // earlier conjunct drives.
  Prepare("SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND c.k = b.k");
  auto steps = BuildJoinSteps(*pq_, {0, 2, 1});
  ASSERT_EQ(steps[2].eq.size(), 2u);
  EXPECT_EQ(steps[2].driver, 0);
  EXPECT_EQ(steps[2].eq[0].other_table, 0);
  Prepare("SELECT COUNT(*) FROM a, b, c WHERE c.k = b.k AND a.k = b.k");
  steps = BuildJoinSteps(*pq_, {0, 2, 1});
  ASSERT_EQ(steps[2].eq.size(), 2u);
  EXPECT_EQ(steps[2].driver, 0);
  EXPECT_EQ(steps[2].eq[0].other_table, 2);
}

TEST(PickDriverTest, MostDistinctKeysWinsAndTiesKeepOrder) {
  HashIndex two, four, four_too;  // distinct keys over 8 positions
  for (int32_t p = 0; p < 8; ++p) {
    two.Add(static_cast<uint64_t>(p % 2), p);
    four.Add(static_cast<uint64_t>(p % 4), p);
    four_too.Add(static_cast<uint64_t>(p / 2), p);
  }
  two.Build();
  four.Build();
  four_too.Build();
  auto probe = [](const HashIndex* idx) { return EquiProbe{0, 0, 0, idx}; };
  EXPECT_EQ(PickDriver({}), -1);
  EXPECT_EQ(PickDriver({probe(nullptr)}), -1);
  EXPECT_EQ(PickDriver({probe(&two), probe(&four)}), 1);
  EXPECT_EQ(PickDriver({probe(&four), probe(&two)}), 0);
  EXPECT_EQ(PickDriver({probe(nullptr), probe(&two)}), 1);
  EXPECT_EQ(PickDriver({probe(&four), probe(&four_too)}), 0);
  EXPECT_EQ(PickDriver({probe(&four_too), probe(&two), probe(&four)}), 0);
}

TEST_F(ForcedOrderTest, EddyDrivesWithMostSelectiveIndex) {
  // The eddy streams b (the smallest table) and extends each b row with a.
  // Driving a.v = b.w (6 distinct keys) tests one candidate in total; the
  // less selective a.k = b.k would test two a rows per b row.
  for (const char* sql :
       {"SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v = b.w",
        "SELECT COUNT(*) FROM a, b WHERE a.v = b.w AND a.k = b.k"}) {
    Prepare(sql);
    EddyEngine eddy(pq_.get(), EddyOptions{});
    ResultSet out(pq_->num_tables());
    ASSERT_TRUE(eddy.Run(&out).ok()) << sql;
    EXPECT_EQ(out.size(), 1u) << sql;
    EXPECT_EQ(eddy.stats().candidate_checks, 1u) << sql;
  }
}

// Regression: -0.0 and +0.0 compare equal in EvalPredicate, so they must
// hash to one join key. Before the JoinKeyOf fix the two bit patterns
// produced different keys and index-backed probes silently missed rows.
class SignedZeroJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto l = catalog_.CreateTable("l", Schema({{"d", DataType::kDouble}}));
    auto r = catalog_.CreateTable("r", Schema({{"d", DataType::kDouble}}));
    ASSERT_TRUE(l.ok() && r.ok());
    for (double v : {-0.0, 1.5}) {
      l.value()->mutable_column(0)->AppendDouble(v);
      l.value()->CommitRow();
    }
    for (double v : {0.0, 2.5, -0.0}) {
      r.value()->mutable_column(0)->AppendDouble(v);
      r.value()->CommitRow();
    }
  }

  void Prepare(const std::string& sql) {
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok());
    auto q = BindSelect(stmt.value().select.get(), &catalog_, &udfs_);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    query_ = std::make_unique<BoundQuery>(q.MoveValue());
    info_ = std::make_unique<QueryInfo>(QueryInfo::Analyze(*query_).MoveValue());
    auto pq = PreparedQuery::Prepare(query_.get(), info_.get(),
                                     catalog_.string_pool(), &clock_, {});
    ASSERT_TRUE(pq.ok());
    pq_ = pq.MoveValue();
  }

  Catalog catalog_;
  UdfRegistry udfs_;
  VirtualClock clock_;
  std::unique_ptr<BoundQuery> query_;
  std::unique_ptr<QueryInfo> info_;
  std::unique_ptr<PreparedQuery> pq_;
};

TEST_F(SignedZeroJoinTest, JoinKeysOfBothZerosAgree) {
  Prepare("SELECT COUNT(*) FROM l, r WHERE l.d = r.d");
  const Column& ld = pq_->table(0)->column(0);
  const Column& rd = pq_->table(1)->column(0);
  EXPECT_EQ(JoinKeyOf(ld, 0), JoinKeyOf(rd, 0));  // -0.0 vs +0.0
  EXPECT_EQ(JoinKeyOf(rd, 0), JoinKeyOf(rd, 2));  // +0.0 vs -0.0
  EXPECT_NE(JoinKeyOf(ld, 0), JoinKeyOf(ld, 1));  // 0 vs 1.5
}

TEST_F(SignedZeroJoinTest, IndexProbeFindsOppositeSignZero) {
  Prepare("SELECT COUNT(*) FROM l, r WHERE l.d = r.d");
  auto steps = BuildJoinSteps(*pq_, {0, 1});
  ASSERT_GE(steps[1].driver, 0);  // index-backed probe
  JoinCursor cursor(pq_.get(), steps);
  cursor.Bind(0, 0);  // l row 0: d = -0.0
  // r positions with an equal key: 0 (+0.0) and 2 (-0.0).
  int64_t p = cursor.FirstCandidate(1, 0);
  EXPECT_EQ(p, 0);
  p = cursor.NextCandidate(1, p);
  EXPECT_EQ(p, 2);
  EXPECT_EQ(cursor.NextCandidate(1, p), -1);
}

}  // namespace
}  // namespace skinner
