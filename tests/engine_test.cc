#include <gtest/gtest.h>

#include "engine/block.h"
#include "engine/forced_order.h"
#include "sql/parser.h"
#include "test_util.h"

namespace skinner {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = catalog_.CreateTable("a", Schema({{"k", DataType::kInt64}}));
    auto b = catalog_.CreateTable("b", Schema({{"k", DataType::kInt64}}));
    ASSERT_TRUE(a.ok() && b.ok());
    for (int i = 0; i < 8; ++i) {
      a.value()->mutable_column(0)->AppendInt(i % 4);
      a.value()->CommitRow();
    }
    for (int i = 0; i < 8; ++i) {
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

TEST_F(EngineTest, VolcanoFullJoin) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  std::vector<PosTuple> out;
  ForcedExecResult r = ExecuteForcedOrder(*pq_, {0, 1}, {}, &out);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(out.size(), 16u);  // 4 keys x 2 x 2
  EXPECT_EQ(r.tuples_emitted, 16u);
  EXPECT_GT(r.intermediate_tuples, 16u);  // includes depth-0 passes
}

TEST_F(EngineTest, VolcanoAndBlockAgree) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  for (auto order : {std::vector<int>{0, 1}, std::vector<int>{1, 0}}) {
    std::vector<PosTuple> v_out;
    std::vector<PosTuple> b_out;
    EXPECT_TRUE(ExecuteForcedOrder(*pq_, order, {}, &v_out).completed);
    EXPECT_TRUE(ExecuteBlock(*pq_, order, {}, &b_out).completed);
    EXPECT_EQ(v_out.size(), b_out.size());
  }
}

TEST_F(EngineTest, LeftmostRangeRestrictsBatch) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  ForcedExecOptions fo;
  fo.left_from = 0;
  fo.left_to = 2;  // a positions 0,1 only: keys 0,1 -> 2 matches each
  std::vector<PosTuple> out;
  EXPECT_TRUE(ExecuteForcedOrder(*pq_, {0, 1}, fo, &out).completed);
  EXPECT_EQ(out.size(), 4u);
}

TEST_F(EngineTest, MinPosExcludesProcessedTuples) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  ForcedExecOptions fo;
  fo.min_pos = {0, 4};  // exclude b positions 0..3 (keys 0..3 once)
  std::vector<PosTuple> out;
  EXPECT_TRUE(ExecuteForcedOrder(*pq_, {0, 1}, fo, &out).completed);
  EXPECT_EQ(out.size(), 8u);  // each a row matches 1 remaining b row
}

TEST_F(EngineTest, DeadlineAborts) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  ForcedExecOptions fo;
  fo.deadline = clock_.now() + 3;
  std::vector<PosTuple> out;
  ForcedExecResult r = ExecuteForcedOrder(*pq_, {0, 1}, fo, &out);
  EXPECT_FALSE(r.completed);
  // Block checks the deadline too.
  BlockExecOptions bo;
  bo.deadline = clock_.now() + 3;
  std::vector<PosTuple> b_out;
  EXPECT_FALSE(ExecuteBlock(*pq_, {0, 1}, bo, &b_out).completed);
}

TEST_F(EngineTest, BlockIntermediateCapAborts) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  BlockExecOptions bo;
  bo.max_intermediate = 4;
  std::vector<PosTuple> out;
  EXPECT_FALSE(ExecuteBlock(*pq_, {0, 1}, bo, &out).completed);
}

TEST_F(EngineTest, SingleTableScan) {
  Prepare("SELECT COUNT(*) FROM a WHERE a.k < 2");
  std::vector<PosTuple> out;
  ForcedExecResult r = ExecuteForcedOrder(*pq_, {0}, {}, &out);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(out.size(), 4u);  // k in {0,1}: rows 0,1,4,5
}

TEST_F(EngineTest, PosTuplesIndexedByTable) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  std::vector<PosTuple> fwd;
  std::vector<PosTuple> rev;
  EXPECT_TRUE(ExecuteForcedOrder(*pq_, {0, 1}, {}, &fwd).completed);
  EXPECT_TRUE(ExecuteForcedOrder(*pq_, {1, 0}, {}, &rev).completed);
  // Same result set regardless of execution order (table-indexed tuples).
  auto canon = [](std::vector<PosTuple> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(fwd), canon(rev));
}

}  // namespace
}  // namespace skinner
