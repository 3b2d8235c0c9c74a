#include "exec/prepared_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash_util.h"
#include "sql/parser.h"

namespace skinner {
namespace {

class PreparedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto a = catalog_.CreateTable("a", Schema({{"k", DataType::kInt64},
                                               {"v", DataType::kInt64}}));
    auto b = catalog_.CreateTable("b", Schema({{"k", DataType::kInt64},
                                               {"s", DataType::kString}}));
    ASSERT_TRUE(a.ok() && b.ok());
    StringPool* pool = catalog_.string_pool();
    for (int i = 0; i < 10; ++i) {
      a.value()->mutable_column(0)->AppendInt(i % 4);
      a.value()->mutable_column(1)->AppendInt(i);
      a.value()->CommitRow();
    }
    for (int i = 0; i < 6; ++i) {
      if (i == 3) {
        b.value()->mutable_column(0)->AppendNull();
      } else {
        b.value()->mutable_column(0)->AppendInt(i % 4);
      }
      b.value()->mutable_column(1)->AppendString(i % 2 ? "x" : "y", pool);
      b.value()->CommitRow();
    }
  }

  struct Prepared {
    std::unique_ptr<BoundQuery> query;
    std::unique_ptr<QueryInfo> info;
    std::unique_ptr<PreparedQuery> pq;
  };

  Prepared Prepare(const std::string& sql, PrepareOptions opts = {}) {
    Prepared p;
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok());
    auto q = BindSelect(stmt.value().select.get(), &catalog_, &udfs_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    p.query = std::make_unique<BoundQuery>(q.MoveValue());
    p.info = std::make_unique<QueryInfo>(QueryInfo::Analyze(*p.query).MoveValue());
    auto pq = PreparedQuery::Prepare(p.query.get(), p.info.get(),
                                     catalog_.string_pool(), &clock_, opts);
    EXPECT_TRUE(pq.ok()) << pq.status().ToString();
    p.pq = pq.MoveValue();
    return p;
  }

  Catalog catalog_;
  UdfRegistry udfs_;
  VirtualClock clock_;
};

TEST_F(PreparedQueryTest, UnaryFilteringProducesPositions) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v >= 5");
  EXPECT_EQ(p.pq->cardinality(0), 5);  // v in 5..9
  EXPECT_EQ(p.pq->cardinality(1), 6);  // unfiltered
  EXPECT_EQ(p.pq->base_row(0, 0), 5);  // first surviving base row
  EXPECT_FALSE(p.pq->trivially_empty());
}

TEST_F(PreparedQueryTest, EmptyFilterShortCircuits) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v > 99");
  EXPECT_TRUE(p.pq->trivially_empty());
}

TEST_F(PreparedQueryTest, FalseConstantShortCircuits) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND 1 = 2");
  EXPECT_TRUE(p.pq->trivially_empty());
}

TEST_F(PreparedQueryTest, HashIndexesOnBothSides) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  EXPECT_NE(p.pq->index(0, 0), nullptr);
  EXPECT_NE(p.pq->index(1, 0), nullptr);
  EXPECT_EQ(p.pq->index(0, 1), nullptr);  // non-join column
}

TEST_F(PreparedQueryTest, IndexExcludesNulls) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  const HashIndex* idx = p.pq->index(1, 0);
  ASSERT_NE(idx, nullptr);
  size_t total = 0;
  for (int key = 0; key < 4; ++key) {
    double d = key;
    uint64_t bits;
    memcpy(&bits, &d, sizeof(d));
    total += idx->Find(bits).size();
  }
  EXPECT_EQ(total, 5u);  // 6 rows minus 1 NULL
}

TEST_F(PreparedQueryTest, IndexPostingsAscending) {
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
  const HashIndex* idx = p.pq->index(0, 0);
  ASSERT_NE(idx, nullptr);
  double d = 1.0;
  uint64_t bits;
  memcpy(&bits, &d, sizeof(d));
  HashIndex::Postings postings = idx->Find(bits);
  ASSERT_FALSE(postings.empty());
  for (size_t i = 1; i < postings.size(); ++i) {
    EXPECT_LT(postings[i - 1], postings[i]);
  }
}

TEST_F(PreparedQueryTest, NoIndexesWhenDisabled) {
  PrepareOptions opts;
  opts.build_hash_indexes = false;
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k", opts);
  EXPECT_EQ(p.pq->index(0, 0), nullptr);
  EXPECT_EQ(p.pq->index(1, 0), nullptr);
}

TEST_F(PreparedQueryTest, ParallelMatchesSerial) {
  PrepareOptions par;
  par.parallel = true;
  par.num_threads = 3;
  auto p1 = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v >= 5");
  auto p2 = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v >= 5",
                    par);
  ASSERT_EQ(p1.pq->cardinality(0), p2.pq->cardinality(0));
  for (int64_t i = 0; i < p1.pq->cardinality(0); ++i) {
    EXPECT_EQ(p1.pq->base_row(0, i), p2.pq->base_row(0, i));
  }
}

TEST_F(PreparedQueryTest, PreprocessCostCharged) {
  uint64_t before = clock_.now();
  auto p = Prepare("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v >= 5");
  EXPECT_GT(p.pq->preprocess_cost(), 0u);
  EXPECT_GE(clock_.now(), before + p.pq->preprocess_cost());
}

TEST(HashIndexBytesTest, BuildReleasesTheStagingBlocksExactly) {
  // bytes() promises the *exact* heap footprint. Before Build() the
  // staging arrays dominate; Build() releases them, so the frozen index is
  // charged for exactly the probe table, the tag array, and the postings
  // arena.
  constexpr size_t kPairs = 1000;
  constexpr size_t kKeys = 100;
  constexpr size_t kStagedPairBytes = sizeof(uint64_t) + sizeof(int32_t);
  HashIndex idx;
  for (size_t i = 0; i < kPairs; ++i) {
    idx.Add(/*key=*/i % kKeys, /*pos=*/static_cast<int32_t>(i));
  }
  EXPECT_GE(idx.bytes(), kPairs * kStagedPairBytes);  // staging dominates

  idx.Build();
  // Frozen layout: a power-of-two slot table at <= 50% load over the
  // distinct key count, one tag byte per slot, plus one arena int per
  // staged pair — and zero staging bytes.
  // Slot = {uint64 key, uint32 offset, uint32 len}.
  size_t cap = 16;
  while (cap < kKeys * 2) cap <<= 1;
  constexpr size_t kSlotBytes = sizeof(uint64_t) + 2 * sizeof(uint32_t);
  EXPECT_EQ(idx.bytes(), cap * kSlotBytes + cap * sizeof(uint8_t) +
                             kPairs * sizeof(int32_t));
  EXPECT_EQ(idx.num_keys(), kKeys);
  EXPECT_EQ(idx.num_slots(), cap);
}

TEST(HashIndexBytesTest, EmptyBuildHoldsNoHeap) {
  HashIndex idx;
  idx.Build();
  EXPECT_EQ(idx.bytes(), 0u);
}

// ---- HashIndex::Build sizing and contents ---------------------------

using Stream = std::vector<std::pair<uint64_t, int32_t>>;

std::unique_ptr<HashIndex> BuildFrom(const Stream& stream) {
  auto idx = std::make_unique<HashIndex>();
  for (const auto& [key, pos] : stream) idx->Add(key, pos);
  idx->Build();
  return idx;
}

/// The sizing rule: the smallest power of two >= max(16, 2 * keys), and
/// no table at all for an empty index.
size_t ExpectedSlots(size_t keys) {
  if (keys == 0) return 0;
  size_t cap = 16;
  while (cap < 2 * keys) cap <<= 1;
  return cap;
}

/// Checks `idx` against a std::map reference of the stream it was built
/// from: capacity by the sizing rule, the key count, every posting run
/// (Find and FindBatch), no phantom hits for absent keys, and a second
/// build of the same stream fingerprinting identically.
void ExpectMatchesStream(const HashIndex& idx, const Stream& stream) {
  std::map<uint64_t, std::vector<int32_t>> truth;
  for (const auto& [key, pos] : stream) truth[key].push_back(pos);
  EXPECT_EQ(idx.num_keys(), truth.size());
  EXPECT_EQ(idx.num_slots(), ExpectedSlots(truth.size()));

  std::vector<uint64_t> present;
  std::vector<uint64_t> absent;
  for (const auto& [key, rows] : truth) {
    const HashIndex::Postings p = idx.Find(key);
    ASSERT_EQ(p.size(), rows.size()) << "key " << key;
    EXPECT_TRUE(std::equal(rows.begin(), rows.end(), p.begin()))
        << "key " << key;
    present.push_back(key);
    if (truth.count(key + 1) == 0) absent.push_back(key + 1);
  }
  for (uint64_t i = 0; i < 256; ++i) {
    const uint64_t key = HashMix64(i ^ 0xabcdef);
    if (truth.count(key) == 0) absent.push_back(key);
  }
  for (const uint64_t key : absent) {
    EXPECT_TRUE(idx.Find(key).empty()) << "phantom key " << key;
  }
  std::vector<uint64_t> probes = present;
  probes.insert(probes.end(), absent.begin(), absent.end());
  std::vector<HashIndex::Postings> out(probes.size());
  idx.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto it = truth.find(probes[i]);
    EXPECT_EQ(out[i].size(), it == truth.end() ? 0 : it->second.size())
        << "batch probe " << probes[i];
  }
  EXPECT_EQ(BuildFrom(stream)->Fingerprint(), idx.Fingerprint());
}

class HashIndexBuildTest : public PreparedQueryTest {};

// The table is sized by the distinct keys, never by the staged pairs.
TEST_F(HashIndexBuildTest, CapacityFollowsDistinctKeys) {
  {
    SCOPED_TRACE("100k pairs over 5 keys");
    Stream s;
    for (int32_t p = 0; p < 100000; ++p) s.push_back({HashMix64(p % 5), p});
    auto idx = BuildFrom(s);
    EXPECT_EQ(idx->num_slots(), 16u);
    ExpectMatchesStream(*idx, s);
  }
  {
    SCOPED_TRACE("all-distinct keys");
    Stream s;
    for (int32_t p = 0; p < 5000; ++p) {
      s.push_back({static_cast<uint64_t>(p) * 0x9E3779B97F4A7C15ull, p});
    }
    ExpectMatchesStream(*BuildFrom(s), s);
  }
  {
    SCOPED_TRACE("20k keys round-robin: >= 10 doublings from 16 slots");
    Stream s;
    for (int32_t p = 0; p < 60000; ++p) s.push_back({HashMix64(p % 20000), p});
    auto idx = BuildFrom(s);
    EXPECT_GE(idx->num_slots(), size_t{16} << 10);
    ExpectMatchesStream(*idx, s);
  }
  {
    SCOPED_TRACE("40 keys homed on one slot");
    // 40 keys -> 128 slots; every key hashes to slot 7 of that table (and
    // so to slot 7 of every smaller table the build grows through).
    Stream s;
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; keys.size() < 40; ++k) {
      if ((HashMix64(k) & 127) == 7) keys.push_back(k);
    }
    int32_t p = 0;
    for (int round = 0; round < 3; ++round) {
      for (const uint64_t k : keys) s.push_back({k, p++});
    }
    auto idx = BuildFrom(s);
    EXPECT_EQ(idx->num_slots(), 128u);
    ExpectMatchesStream(*idx, s);
  }
  {
    SCOPED_TRACE("one key, 10k postings");
    Stream s;
    for (int32_t p = 0; p < 10000; ++p) s.push_back({42, p});
    auto idx = BuildFrom(s);
    EXPECT_EQ(idx->num_slots(), 16u);
    ExpectMatchesStream(*idx, s);
  }
  {
    SCOPED_TRACE("Prepare: 1000 rows, NULL join keys on every even row");
    auto n = catalog_.CreateTable("n", Schema({{"k", DataType::kInt64}}));
    ASSERT_TRUE(n.ok());
    for (int i = 0; i < 1000; ++i) {
      if (i % 2 == 0) {
        n.value()->mutable_column(0)->AppendNull();
      } else {
        n.value()->mutable_column(0)->AppendInt(i % 5);
      }
      n.value()->CommitRow();
    }
    auto p = Prepare("SELECT COUNT(*) FROM a, n WHERE a.k = n.k");
    const HashIndex* idx = p.pq->index(1, 0);
    ASSERT_NE(idx, nullptr);
    const Column& col = p.pq->table(1)->column(0);
    Stream s;
    for (int64_t pos = 0; pos < p.pq->cardinality(1); ++pos) {
      const int32_t row = p.pq->base_row(1, pos);
      if (col.IsNull(row)) continue;
      s.push_back({JoinKeyOf(col, row), static_cast<int32_t>(pos)});
    }
    ASSERT_EQ(s.size(), 500u);
    EXPECT_EQ(idx->num_keys(), 5u);
    EXPECT_EQ(idx->num_slots(), 16u);
    ExpectMatchesStream(*idx, s);
  }
}

// A pseudo-random stream against ground truth: every staged key's full
// ascending run, and no phantom postings for keys outside the domain.
TEST_F(HashIndexBuildTest, RandomStreamMatchesGroundTruth) {
  const int64_t n = 20000;
  const uint64_t domain = 3001;
  Stream s;
  for (int64_t i = 0; i < n; ++i) {
    s.push_back({HashMix64(static_cast<uint64_t>(i)) % domain,
                 static_cast<int32_t>(i)});
  }
  auto idx = BuildFrom(s);
  ExpectMatchesStream(*idx, s);
  for (uint64_t key = domain; key < domain + 64; ++key) {
    EXPECT_TRUE(idx->Find(key).empty());
  }
}

TEST_F(PreparedQueryTest, JoinKeyOfNormalizesTypes) {
  const Table* a = catalog_.FindTable("a");
  // Int column keys equal their double-bit representation.
  uint64_t k = JoinKeyOf(a->column(0), 0);
  double expect = static_cast<double>(a->column(0).GetInt(0));
  uint64_t bits;
  memcpy(&bits, &expect, sizeof(expect));
  EXPECT_EQ(k, bits);
}

}  // namespace
}  // namespace skinner
