#include "exec/result_set.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace skinner {

namespace {

/// The counting pass runs when the first column spans at most this many
/// values per row; its bucket array then costs at most 16 bytes per row.
constexpr uint64_t kCountingRangePerRow = 4;

/// Lexicographic order of two rows over columns [from, width), signed per
/// column (std::vector<int32_t>'s operator<).
struct RowLess {
  int from;
  int width;
  bool operator()(const int32_t* a, const int32_t* b) const {
    for (int c = from; c < width; ++c) {
      if (a[c] != b[c]) return a[c] < b[c];
    }
    return false;
  }
};

}  // namespace

ResultSet::ResultSet(int width) : width_(width) {
  assert(width >= 1 && "ResultSet needs at least one column");
}

std::vector<PosTuple> ResultSet::ToVector() const {
  std::vector<PosTuple> out;
  out.reserve(size());
  ForEach([&](const int32_t* t) { out.emplace_back(t, t + width_); });
  return out;
}

void ResultSet::ExportSorted(std::vector<PosTuple>* out) const {
  ResultSet sorted(width_);
  MergeSortedUnique({this}, &sorted);
  out->reserve(out->size() + sorted.size());
  sorted.ForEach([&](const int32_t* t) { out->emplace_back(t, t + width_); });
}

void ResultSet::MergeSortedUnique(const std::vector<const ResultSet*>& parts,
                                  ResultSet* out) {
  const int w = out->width_;
  size_t n = 0;
  int32_t lo = std::numeric_limits<int32_t>::max();
  int32_t hi = std::numeric_limits<int32_t>::min();
  for (const ResultSet* p : parts) {
    assert(p->width_ == w && p != out);
    n += p->size();
    p->ForEach([&](const int32_t* row) {
      lo = std::min(lo, row[0]);
      hi = std::max(hi, row[0]);
    });
  }
  if (n == 0) return;

  std::vector<const int32_t*> rows(n);
  const uint64_t range =
      static_cast<uint64_t>(static_cast<int64_t>(hi) - lo) + 1;
  if (range <= kCountingRangePerRow * n &&
      n <= std::numeric_limits<uint32_t>::max()) {
    // Counting pass on the first column: next[v] becomes the start of the
    // bucket of value lo + v, and after the scatter the end of it.
    auto bucket = [lo](const int32_t* row) {
      return static_cast<size_t>(static_cast<int64_t>(row[0]) - lo);
    };
    std::vector<uint32_t> next(range + 1, 0);
    for (const ResultSet* p : parts) {
      p->ForEach([&](const int32_t* row) { ++next[bucket(row) + 1]; });
    }
    for (uint64_t v = 1; v <= range; ++v) next[v] += next[v - 1];
    for (const ResultSet* p : parts) {
      p->ForEach([&](const int32_t* row) { rows[next[bucket(row)]++] = row; });
    }
    if (w > 1) {
      const RowLess rest{1, w};
      uint32_t begin = 0;
      for (uint64_t v = 0; v < range; ++v) {
        const uint32_t end = next[v];
        if (end - begin > 1) {
          std::sort(rows.begin() + begin, rows.begin() + end, rest);
        }
        begin = end;
      }
    }
  } else {
    size_t i = 0;
    for (const ResultSet* p : parts) {
      p->ForEach([&](const int32_t* row) { rows[i++] = row; });
    }
    std::sort(rows.begin(), rows.end(), RowLess{0, w});
  }

  // Equal rows are adjacent now; write each distinct row once.
  const size_t row_bytes = sizeof(int32_t) * static_cast<size_t>(w);
  size_t distinct = 1;
  for (size_t i = 1; i < n; ++i) {
    distinct += std::memcmp(rows[i - 1], rows[i], row_bytes) != 0;
  }
  std::vector<int32_t>& dst = out->buffer_;
  size_t off = dst.size();
  dst.resize(off + distinct * static_cast<size_t>(w));
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && std::memcmp(rows[i - 1], rows[i], row_bytes) == 0) continue;
    std::memcpy(dst.data() + off, rows[i], row_bytes);
    off += static_cast<size_t>(w);
  }
}

}  // namespace skinner
