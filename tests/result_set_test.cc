// ResultSet: the append-only flat buffer and its canonical export.
// MergeSortedUnique is checked against a std::sort/std::unique reference
// over PosTuples, on both of its sort paths (first-column counting pass
// and comparison sort), across widths, part counts and duplicate mixes.

#include "exec/result_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <vector>

namespace skinner {
namespace {

/// The export's specification: sorted lexicographically, duplicates gone.
std::vector<PosTuple> Reference(const std::vector<const ResultSet*>& parts) {
  std::vector<PosTuple> all;
  for (const ResultSet* p : parts) {
    for (PosTuple& t : p->ToVector()) all.push_back(std::move(t));
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::vector<const ResultSet*> Views(
    const std::vector<std::unique_ptr<ResultSet>>& parts) {
  std::vector<const ResultSet*> views;
  for (const auto& p : parts) views.push_back(p.get());
  return views;
}

/// Fills `num_parts` sets of `width` columns with `rows` random tuples in
/// total. First-column values span `first_range` values starting at
/// `first_lo`; other columns draw from [0, other_range). About
/// `dup_percent`% of rows copy an earlier row of any part.
std::vector<std::unique_ptr<ResultSet>> RandomParts(
    std::mt19937_64* rng, int width, int num_parts, int rows,
    int64_t first_lo, int64_t first_range, int64_t other_range,
    int dup_percent) {
  std::vector<std::unique_ptr<ResultSet>> parts;
  for (int i = 0; i < num_parts; ++i) {
    parts.push_back(std::make_unique<ResultSet>(width));
  }
  std::vector<PosTuple> emitted;
  PosTuple t(static_cast<size_t>(width));
  for (int r = 0; r < rows && num_parts > 0; ++r) {
    if (!emitted.empty() &&
        static_cast<int>((*rng)() % 100) < dup_percent) {
      t = emitted[(*rng)() % emitted.size()];
    } else {
      t[0] = static_cast<int32_t>(
          first_lo + static_cast<int64_t>((*rng)() %
                                          static_cast<uint64_t>(first_range)));
      for (int c = 1; c < width; ++c) {
        t[static_cast<size_t>(c)] = static_cast<int32_t>(
            (*rng)() % static_cast<uint64_t>(other_range));
      }
    }
    emitted.push_back(t);
    parts[(*rng)() % parts.size()]->Append(t);
  }
  return parts;
}

void ExpectMergeMatchesReference(
    const std::vector<std::unique_ptr<ResultSet>>& parts, int width,
    const char* what) {
  ResultSet out(width);
  ResultSet::MergeSortedUnique(Views(parts), &out);
  EXPECT_EQ(out.ToVector(), Reference(Views(parts))) << what;
}

TEST(ResultSetTest, AppendStoresRowsInOrder) {
  ResultSet rs(3);
  EXPECT_EQ(rs.size(), 0u);
  EXPECT_EQ(rs.width(), 3);
  rs.Append(PosTuple{5, 1, 2});
  const int32_t raw[3] = {0, 7, 7};
  rs.Append(raw);
  rs.Append(PosTuple{5, 1, 2});  // duplicates are kept until export
  EXPECT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs.ToVector(),
            (std::vector<PosTuple>{{5, 1, 2}, {0, 7, 7}, {5, 1, 2}}));
  EXPECT_GE(rs.bytes(), 9 * sizeof(int32_t));
  size_t visited = 0;
  rs.ForEach([&](const int32_t* t) {
    EXPECT_EQ(t[0], visited == 1 ? 0 : 5);
    ++visited;
  });
  EXPECT_EQ(visited, 3u);
}

TEST(ResultSetTest, ZeroPartsAndEmptyPartsAppendNothing) {
  ResultSet out(2);
  ResultSet::MergeSortedUnique({}, &out);
  EXPECT_EQ(out.size(), 0u);
  ResultSet empty_a(2);
  ResultSet empty_b(2);
  ResultSet::MergeSortedUnique({&empty_a, &empty_b}, &out);
  EXPECT_EQ(out.size(), 0u);
}

TEST(ResultSetTest, EmptyPartsBesideFullOnes) {
  ResultSet empty(3);
  ResultSet full(3);
  full.Append(PosTuple{2, 0, 1});
  full.Append(PosTuple{1, 9, 9});
  full.Append(PosTuple{2, 0, 1});
  ResultSet out(3);
  ResultSet::MergeSortedUnique({&empty, &full, &empty}, &out);
  EXPECT_EQ(out.ToVector(), (std::vector<PosTuple>{{1, 9, 9}, {2, 0, 1}}));
}

// Rows already in `out` stay in front, untouched and not deduplicated
// against the merged rows.
TEST(ResultSetTest, OutThatAlreadyHoldsRowsIsAppendedTo) {
  ResultSet out(2);
  out.Append(PosTuple{9, 9});
  out.Append(PosTuple{1, 1});
  ResultSet part(2);
  part.Append(PosTuple{1, 1});
  part.Append(PosTuple{0, 5});
  part.Append(PosTuple{1, 1});
  ResultSet::MergeSortedUnique({&part}, &out);
  EXPECT_EQ(out.ToVector(),
            (std::vector<PosTuple>{{9, 9}, {1, 1}, {0, 5}, {1, 1}}));
}

// Columns compare as signed int32_t, like std::vector<int32_t>; the
// first-column range spans the whole int32_t domain without overflow.
TEST(ResultSetTest, SignedAndExtremeValues) {
  const int32_t lo = std::numeric_limits<int32_t>::min();
  const int32_t hi = std::numeric_limits<int32_t>::max();
  ResultSet extremes(2);
  extremes.Append(PosTuple{hi, -1});
  extremes.Append(PosTuple{-1, 4});
  extremes.Append(PosTuple{lo, 0});
  extremes.Append(PosTuple{-1, -4});
  extremes.Append(PosTuple{lo, 0});
  ResultSet out(2);
  ResultSet::MergeSortedUnique({&extremes}, &out);
  EXPECT_EQ(out.ToVector(),
            (std::vector<PosTuple>{{lo, 0}, {-1, -4}, {-1, 4}, {hi, -1}}));
  // A narrow range of negative first columns takes the counting pass.
  ResultSet narrow(2);
  for (int i = 0; i < 40; ++i) narrow.Append(PosTuple{-(i % 5), 20 - i});
  ResultSet narrow_out(2);
  ResultSet::MergeSortedUnique({&narrow}, &narrow_out);
  EXPECT_EQ(narrow_out.ToVector(), Reference({&narrow}));
}

TEST(ResultSetTest, ExportSortedAdapterMatchesReference) {
  std::mt19937_64 rng(7);
  auto parts = RandomParts(&rng, 4, 1, 500, 0, 60, 5, 30);
  std::vector<PosTuple> out = {{-1, -1, -1, -1}};  // kept in front
  parts[0]->ExportSorted(&out);
  std::vector<PosTuple> want = {{-1, -1, -1, -1}};
  for (PosTuple& t : Reference({parts[0].get()})) want.push_back(t);
  EXPECT_EQ(out, want);
}

// Widths 1..17, with 1 and many parts, on both sort paths: a first
// column far narrower than the row count (counting pass, many rows per
// bucket) and far wider (comparison sort), each with and without heavy
// duplicates inside and across parts.
TEST(ResultSetTest, MergeMatchesReferenceAcrossShapes) {
  std::mt19937_64 rng(1);
  for (int width = 1; width <= 17; ++width) {
    for (int num_parts : {1, 2, 5}) {
      for (int dup_percent : {0, 60}) {
        auto narrow = RandomParts(&rng, width, num_parts, 700, 3, 20, 4,
                                  dup_percent);
        ExpectMergeMatchesReference(narrow, width, "narrow first column");
        auto wide = RandomParts(&rng, width, num_parts, 700, -(1 << 30),
                                int64_t{1} << 31, 1 << 20, dup_percent);
        ExpectMergeMatchesReference(wide, width, "wide first column");
        // Mid-range: about three first-column values per row, still the
        // counting pass.
        auto mid = RandomParts(&rng, width, num_parts, 700, 0, 2000, 3,
                               dup_percent);
        ExpectMergeMatchesReference(mid, width, "mid first column");
      }
    }
  }
}

// Every part holds the same rows: the merged export equals one part's
// distinct rows, so it does not depend on how rows were split.
TEST(ResultSetTest, DuplicatesAcrossIdenticalPartsCollapse) {
  std::mt19937_64 rng(3);
  auto one = RandomParts(&rng, 5, 1, 300, 0, 50, 3, 50);
  std::vector<std::unique_ptr<ResultSet>> copies;
  for (int i = 0; i < 4; ++i) {
    copies.push_back(std::make_unique<ResultSet>(5));
    one[0]->ForEach([&](const int32_t* t) { copies.back()->Append(t); });
  }
  ResultSet merged(5);
  ResultSet::MergeSortedUnique(Views(copies), &merged);
  ResultSet single(5);
  ResultSet::MergeSortedUnique({one[0].get()}, &single);
  EXPECT_EQ(merged.ToVector(), single.ToVector());
  EXPECT_EQ(merged.ToVector(), Reference({one[0].get()}));
}

}  // namespace
}  // namespace skinner
