#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "exec/prepared_query.h"
#include "storage/catalog.h"

namespace skinner {
namespace {

TEST(StringPoolTest, InternDedupes) {
  StringPool pool;
  int32_t a = pool.Intern("hello");
  int32_t b = pool.Intern("world");
  int32_t c = pool.Intern("hello");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Get(a), "hello");
  EXPECT_EQ(pool.Get(b), "world");
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPoolTest, LookupWithoutIntern) {
  StringPool pool;
  EXPECT_EQ(pool.Lookup("absent"), -1);
  int32_t id = pool.Intern("present");
  EXPECT_EQ(pool.Lookup("present"), id);
}

TEST(StringPoolTest, StableAcrossGrowth) {
  // Interning many strings must not invalidate earlier ids (regression
  // guard for the string_view-into-vector key scheme).
  StringPool pool;
  std::vector<int32_t> ids;
  for (int i = 0; i < 5000; ++i) ids.push_back(pool.Intern("s" + std::to_string(i)));
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(pool.Get(ids[static_cast<size_t>(i)]), "s" + std::to_string(i));
    EXPECT_EQ(pool.Lookup("s" + std::to_string(i)), ids[static_cast<size_t>(i)]);
  }
}

TEST(StringPoolTest, ConcurrentInternAndGet) {
  // One writer interns distinct strings across many segment boundaries
  // while readers Get every id visible so far; Get takes no lock, so this
  // pins the segment publication order (and is a TSan target). Half the
  // readers learn ids through the writer's own atomic counter, half only
  // through size(): both visibility paths of the contract.
  constexpr int kStrings = 200000;
  constexpr int kReaders = 4;
  StringPool pool;
  std::vector<int32_t> ids(kStrings, -1);
  std::atomic<int> published{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    const bool via_size = (t % 2) == 1;
    readers.emplace_back([&, via_size] {
      int seen = 0;
      while (seen < kStrings) {
        const int upto = via_size ? static_cast<int>(pool.size())
                                  : published.load(std::memory_order_acquire);
        for (; seen < upto; ++seen) {
          // Ids are dense from 0, so a size()-reader knows id == seen.
          const int32_t id = via_size ? seen : ids[static_cast<size_t>(seen)];
          if (pool.Get(id) != "str" + std::to_string(seen)) ++mismatches;
        }
      }
    });
  }
  for (int i = 0; i < kStrings; ++i) {
    ids[static_cast<size_t>(i)] = pool.Intern("str" + std::to_string(i));
    published.store(i + 1, std::memory_order_release);
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  ASSERT_EQ(pool.size(), static_cast<size_t>(kStrings));
  for (int i = 0; i < kStrings; ++i) {
    ASSERT_EQ(ids[static_cast<size_t>(i)], i);
    ASSERT_EQ(pool.Lookup("str" + std::to_string(i)), i);
  }
}

TEST(ColumnTest, IntAppendAndRead) {
  Column c(DataType::kInt64);
  c.AppendInt(7);
  c.AppendInt(-3);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.GetInt(0), 7);
  EXPECT_EQ(c.GetInt(1), -3);
  EXPECT_FALSE(c.IsNull(0));
}

TEST(ColumnTest, NullTrackingStaysInSync) {
  Column c(DataType::kInt64);
  c.AppendInt(1);
  c.AppendNull();
  c.AppendInt(3);   // typed append after a NULL must extend validity
  c.AppendNull();
  EXPECT_EQ(c.size(), 4);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_FALSE(c.IsNull(2));
  EXPECT_TRUE(c.IsNull(3));
}

TEST(ColumnTest, DoubleColumnNulls) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.5);
  c.AppendNull();
  EXPECT_EQ(c.size(), 2);
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 1.5);
  EXPECT_TRUE(c.IsNull(1));
}

TEST(ColumnTest, JoinKeyNormalizesIntAndDouble) {
  Column ci(DataType::kInt64);
  Column cd(DataType::kDouble);
  ci.AppendInt(42);
  cd.AppendDouble(42.0);
  EXPECT_EQ(JoinKeyOf(ci, 0), JoinKeyOf(cd, 0));
  ci.AppendInt(43);
  EXPECT_NE(JoinKeyOf(ci, 1), JoinKeyOf(cd, 0));
  // Signed zeros compare equal, so they share a key.
  cd.AppendDouble(-0.0);
  cd.AppendDouble(0.0);
  EXPECT_EQ(JoinKeyOf(cd, 1), JoinKeyOf(cd, 2));
  // Beyond 2^53 the double conversion is lossy; exact int64 keys must not
  // collapse adjacent values.
  ci.AppendInt((int64_t{1} << 53) + 1);
  ci.AppendInt(int64_t{1} << 53);
  EXPECT_NE(JoinKeyOf(ci, 2), JoinKeyOf(ci, 3));
}

TEST(ColumnTest, StringDictionaryCodes) {
  StringPool pool;
  Column c(DataType::kString);
  c.AppendString("x", &pool);
  c.AppendString("y", &pool);
  c.AppendString("x", &pool);
  EXPECT_EQ(c.GetStringId(0), c.GetStringId(2));
  EXPECT_NE(c.GetStringId(0), c.GetStringId(1));
  EXPECT_EQ(c.GetValue(1, pool).AsString(), "y");
}

TEST(ColumnTest, AppendValueCoercesAndChecks) {
  StringPool pool;
  Column c(DataType::kInt64);
  EXPECT_TRUE(c.AppendValue(Value::Int(1), &pool).ok());
  EXPECT_TRUE(c.AppendValue(Value::Double(2.9), &pool).ok());  // truncates
  EXPECT_EQ(c.GetInt(1), 2);
  EXPECT_FALSE(c.AppendValue(Value::String("no"), &pool).ok());
  EXPECT_TRUE(c.AppendValue(Value::Null(), &pool).ok());
  EXPECT_TRUE(c.IsNull(2));
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s({{"Id", DataType::kInt64}, {"Name", DataType::kString}});
  EXPECT_EQ(s.FindColumn("id"), 0);
  EXPECT_EQ(s.FindColumn("NAME"), 1);
  EXPECT_EQ(s.FindColumn("missing"), -1);
  EXPECT_EQ(s.num_columns(), 2);
}

TEST(TableTest, AppendRowAndGetRow) {
  StringPool pool;
  Table t("t", Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}),
          &pool);
  EXPECT_TRUE(t.AppendRow({Value::Int(1), Value::String("x")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Int(2), Value::Null()}).ok());
  EXPECT_EQ(t.num_rows(), 2);
  auto row = t.GetRow(1);
  EXPECT_EQ(row[0].AsInt(), 2);
  EXPECT_TRUE(row[1].is_null());
}

TEST(TableTest, AppendRowArityMismatch) {
  StringPool pool;
  Table t("t", Schema({{"a", DataType::kInt64}}), &pool);
  EXPECT_FALSE(t.AppendRow({Value::Int(1), Value::Int(2)}).ok());
}

TEST(CatalogTest, CreateFindDrop) {
  Catalog cat;
  auto r = cat.CreateTable("T1", Schema({{"a", DataType::kInt64}}));
  ASSERT_TRUE(r.ok());
  EXPECT_NE(cat.FindTable("t1"), nullptr);  // case-insensitive
  EXPECT_EQ(cat.FindTable("t2"), nullptr);
  EXPECT_FALSE(cat.CreateTable("t1", Schema()).ok());  // duplicate
  EXPECT_TRUE(cat.DropTable("T1").ok());
  EXPECT_FALSE(cat.DropTable("T1").ok());
  EXPECT_EQ(cat.FindTable("t1"), nullptr);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("zeta", Schema()).ok());
  ASSERT_TRUE(cat.CreateTable("alpha", Schema()).ok());
  EXPECT_EQ(cat.TableNames(), (std::vector<std::string>{"alpha", "zeta"}));
}

}  // namespace
}  // namespace skinner
