#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "benchgen/tpch.h"
#include "benchgen/tpch_queries.h"
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
  ResultSet out(pq_->num_tables());
  ForcedExecResult r = ExecuteForcedOrder(*pq_, {0, 1}, {}, &out);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(out.size(), 16u);  // 4 keys x 2 x 2
  EXPECT_EQ(r.tuples_emitted, 16u);
  EXPECT_GT(r.intermediate_tuples, 16u);  // includes depth-0 passes
}

TEST_F(EngineTest, VolcanoAndBlockAgree) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  for (auto order : {std::vector<int>{0, 1}, std::vector<int>{1, 0}}) {
    ResultSet v_out(pq_->num_tables());
    ResultSet b_out(pq_->num_tables());
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
  ResultSet out(pq_->num_tables());
  EXPECT_TRUE(ExecuteForcedOrder(*pq_, {0, 1}, fo, &out).completed);
  EXPECT_EQ(out.size(), 4u);
}

TEST_F(EngineTest, MinPosExcludesProcessedTuples) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  ForcedExecOptions fo;
  fo.min_pos = {0, 4};  // exclude b positions 0..3 (keys 0..3 once)
  ResultSet out(pq_->num_tables());
  EXPECT_TRUE(ExecuteForcedOrder(*pq_, {0, 1}, fo, &out).completed);
  EXPECT_EQ(out.size(), 8u);  // each a row matches 1 remaining b row
}

TEST_F(EngineTest, DeadlineAborts) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  ForcedExecOptions fo;
  fo.deadline = clock_.now() + 3;
  ResultSet out(pq_->num_tables());
  ForcedExecResult r = ExecuteForcedOrder(*pq_, {0, 1}, fo, &out);
  EXPECT_FALSE(r.completed);
  // Block checks the deadline too.
  BlockExecOptions bo;
  bo.deadline = clock_.now() + 3;
  ResultSet b_out(pq_->num_tables());
  EXPECT_FALSE(ExecuteBlock(*pq_, {0, 1}, bo, &b_out).completed);
}

TEST_F(EngineTest, BlockIntermediateCapAborts) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  BlockExecOptions bo;
  bo.max_intermediate = 4;
  ResultSet out(pq_->num_tables());
  EXPECT_FALSE(ExecuteBlock(*pq_, {0, 1}, bo, &out).completed);
}

TEST_F(EngineTest, SingleTableScan) {
  Prepare("SELECT COUNT(*) FROM a WHERE a.k < 2");
  ResultSet out(pq_->num_tables());
  ForcedExecResult r = ExecuteForcedOrder(*pq_, {0}, {}, &out);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(out.size(), 4u);  // k in {0,1}: rows 0,1,4,5
}

TEST_F(EngineTest, PosTuplesIndexedByTable) {
  Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  ResultSet fwd(pq_->num_tables());
  ResultSet rev(pq_->num_tables());
  EXPECT_TRUE(ExecuteForcedOrder(*pq_, {0, 1}, {}, &fwd).completed);
  EXPECT_TRUE(ExecuteForcedOrder(*pq_, {1, 0}, {}, &rev).completed);
  // Same result set regardless of execution order (table-indexed tuples).
  auto canon = [](const ResultSet& rs) {
    std::vector<PosTuple> v = rs.ToVector();
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(canon(fwd), canon(rev));
}

// TPC-H Q9u's join steps at partsupp and lineitem each have two
// index-backed equalities of very different selectivity (partkey vs
// suppkey). The driving column must come from the indexes, not from the
// order the query happens to list its conjuncts in; WHERE order alone
// then cannot change a forced order's work or rows.
TEST(DriverRuleTest, Q9uDriverIgnoresWhereOrder) {
  Database db;
  bench::TpchSpec spec;
  spec.scale_factor = 0.002;
  ASSERT_TRUE(bench::GenerateTpch(&db, spec).ok());
  ASSERT_TRUE(bench::RegisterTpchUdfs(&db).ok());
  std::string sql;
  for (const auto& q : bench::TpchUdfQueries()) {
    if (q.name == "Q9u") sql = q.sql;
  }
  ASSERT_FALSE(sql.empty());
  // The same query with its WHERE conjuncts listed in reverse.
  const size_t where = sql.find(" WHERE ") + 7;
  const size_t group = sql.find(" GROUP BY ");
  std::vector<std::string> conjuncts;
  for (size_t at = where; at < group;) {
    const size_t next = std::min(sql.find(" AND ", at), group);
    conjuncts.insert(conjuncts.begin(), sql.substr(at, next - at));
    at = next == group ? group : next + 5;
  }
  std::string reversed = sql.substr(0, where);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    reversed += (i == 0 ? "" : " AND ") + conjuncts[i];
  }
  reversed += sql.substr(group);
  ASSERT_EQ(conjuncts.size(), 7u);
  ASSERT_NE(reversed, sql);

  struct Prepared {
    VirtualClock clock;
    std::unique_ptr<BoundQuery> query;
    std::unique_ptr<QueryInfo> info;
    std::unique_ptr<PreparedQuery> pq;
  };
  Prepared fwd;
  Prepared rev;
  for (auto [p, text] : {std::pair<Prepared*, const std::string*>{&fwd, &sql},
                         {&rev, &reversed}}) {
    auto stmt = ParseSql(*text);
    ASSERT_TRUE(stmt.ok());
    auto q = BindSelect(stmt.value().select.get(), db.catalog(), db.udfs());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    p->query = std::make_unique<BoundQuery>(q.MoveValue());
    p->info = std::make_unique<QueryInfo>(
        QueryInfo::Analyze(*p->query).MoveValue());
    auto pq = PreparedQuery::Prepare(p->query.get(), p->info.get(),
                                     db.catalog()->string_pool(), &p->clock,
                                     {});
    ASSERT_TRUE(pq.ok());
    p->pq = pq.MoveValue();
  }

  // FROM part(0), supplier(1), lineitem(2), partsupp(3), orders(4),
  // nation(5). Step 1 joins partsupp to lineitem, resp. lineitem to
  // partsupp, on both partkey and suppkey; partkey has far more keys.
  const Schema& ps = db.catalog()->FindTable("partsupp")->schema();
  const Schema& li = db.catalog()->FindTable("lineitem")->schema();
  const std::vector<std::pair<std::vector<int>, int>> cases = {
      {{2, 3, 0, 1, 5, 4}, ps.FindColumn("ps_partkey")},
      {{3, 2, 0, 1, 4, 5}, li.FindColumn("l_partkey")},
  };
  for (const auto& [order, partkey] : cases) {
    auto fwd_steps = BuildJoinSteps(*fwd.pq, order);
    auto rev_steps = BuildJoinSteps(*rev.pq, order);
    auto driving_col = [](const JoinStep& s) {
      return s.driver < 0 ? -1 : s.eq[static_cast<size_t>(s.driver)].this_col;
    };
    ASSERT_EQ(fwd_steps[1].eq.size(), 2u);
    EXPECT_EQ(driving_col(fwd_steps[1]), partkey);
    for (size_t d = 0; d < order.size(); ++d) {
      EXPECT_EQ(driving_col(fwd_steps[d]), driving_col(rev_steps[d]))
          << "step " << d;
    }
    ResultSet fwd_rows(fwd.pq->num_tables());
    ResultSet rev_rows(rev.pq->num_tables());
    const uint64_t fwd_start = fwd.clock.now();
    const uint64_t rev_start = rev.clock.now();
    ASSERT_TRUE(ExecuteForcedOrder(*fwd.pq, order, {}, &fwd_rows).completed);
    ASSERT_TRUE(ExecuteForcedOrder(*rev.pq, order, {}, &rev_rows).completed);
    EXPECT_EQ(fwd.clock.now() - fwd_start, rev.clock.now() - rev_start);
    EXPECT_GT(fwd_rows.size(), 0u);
    EXPECT_EQ(fwd_rows.ToVector(), rev_rows.ToVector());
  }
}

}  // namespace
}  // namespace skinner
