#include "skinner/skinner_h.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace skinner {
namespace {

class SkinnerHTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = catalog_.CreateTable("a", Schema({{"k", DataType::kInt64}}));
    auto b = catalog_.CreateTable("b", Schema({{"k", DataType::kInt64}}));
    ASSERT_TRUE(a.ok() && b.ok());
    for (int i = 0; i < 24; ++i) {
      a.value()->mutable_column(0)->AppendInt(i % 4);
      a.value()->CommitRow();
    }
    for (int i = 0; i < 16; ++i) {
      b.value()->mutable_column(0)->AppendInt(i % 4);
      b.value()->CommitRow();
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

// Expected result: 4 keys x 6 x 4 = 96 tuples.

TEST_F(SkinnerHTest, GoodOptimizerPlanFinishesQuickly) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  SkinnerHOptions opts;
  opts.unit = 1'000'000;  // generous first slice: optimizer plan finishes
  SkinnerHEngine engine(pq_.get(), {0, 1}, opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 96u);
  EXPECT_TRUE(engine.stats().finished_by_optimizer);
  EXPECT_EQ(engine.stats().optimizer_rounds, 1u);
}

TEST_F(SkinnerHTest, TinySlicesInterleaveAndStillComplete) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  SkinnerHOptions opts;
  opts.unit = 10;  // doubling starts tiny: both sides get many rounds
  opts.g.batches_per_table = 4;
  opts.g.timeout_unit = 10;
  SkinnerHEngine engine(pq_.get(), {0, 1}, opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 96u);
  EXPECT_GT(engine.stats().optimizer_rounds, 1u);
}

TEST_F(SkinnerHTest, LearningSideCanFinishFirst) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  SkinnerHOptions opts;
  opts.unit = 5;
  opts.g.batches_per_table = 2;
  opts.g.timeout_unit = 100000;  // learning side is generously funded
  // Give the optimizer a pathological order replayed against a deliberately
  // bad schedule: order [1, 0] is fine here, so instead rely on tiny
  // optimizer slices: learning finishes first.
  SkinnerHEngine engine(pq_.get(), {1, 0}, opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_EQ(out.size(), 96u);
}

TEST_F(SkinnerHTest, CombinedResultsAreDisjoint) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  SkinnerHOptions opts;
  opts.unit = 50;
  opts.g.batches_per_table = 3;
  opts.g.timeout_unit = 50;
  SkinnerHEngine engine(pq_.get(), {0, 1}, opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  std::vector<PosTuple> tuples = out.ToVector();
  std::sort(tuples.begin(), tuples.end());
  EXPECT_EQ(std::adjacent_find(tuples.begin(), tuples.end()), tuples.end());
  EXPECT_EQ(out.size(), 96u);
}

TEST_F(SkinnerHTest, DeadlineStops) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  SkinnerHOptions opts;
  opts.unit = 4;
  opts.deadline = clock_.now() + 30;
  opts.g.deadline = opts.deadline;
  SkinnerHEngine engine(pq_.get(), {0, 1}, opts);
  ResultSet out(pq_->num_tables());
  ASSERT_TRUE(engine.Run(&out).ok());
  EXPECT_TRUE(engine.stats().timed_out);
}

TEST_F(SkinnerHTest, RegretVsTraditionalBounded) {
  // Theorem 5.8 flavor: with a perfect optimizer plan, Skinner-H's total
  // cost must stay within a small constant factor of running the plan
  // directly (paper bounds the regret by 4/5 of total time).
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  uint64_t direct_cost;
  {
    VirtualClock clock;
    auto pq2 = PreparedQuery::Prepare(query_.get(), info_.get(),
                                      catalog_.string_pool(), &clock, {});
    ASSERT_TRUE(pq2.ok());
    ResultSet out(pq2.value()->num_tables());
    ExecuteForcedOrder(*pq2.value(), {0, 1}, {}, &out);
    direct_cost = clock.now();
  }
  {
    VirtualClock clock;
    auto pq2 = PreparedQuery::Prepare(query_.get(), info_.get(),
                                      catalog_.string_pool(), &clock, {});
    ASSERT_TRUE(pq2.ok());
    SkinnerHOptions opts;
    opts.unit = std::max<uint64_t>(8, direct_cost / 8);
    SkinnerHEngine engine(pq2.value().get(), {0, 1}, opts);
    ResultSet out(pq2.value()->num_tables());
    ASSERT_TRUE(engine.Run(&out).ok());
    EXPECT_EQ(out.size(), 96u);
    // Total <= 5x the direct execution (paper: regret <= 4/5 of total).
    EXPECT_LE(clock.now(), direct_cost * 5 + 10 * opts.unit);
  }
}

}  // namespace
}  // namespace skinner
