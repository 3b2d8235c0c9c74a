#ifndef SKINNER_EXEC_RESULT_SET_H_
#define SKINNER_EXEC_RESULT_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace skinner {

/// A join result tuple: one filtered position per table, in table order.
using PosTuple = std::vector<int32_t>;

/// Compact join-result accumulator shared by every engine (paper Figure 2:
/// the join phase emits tuple-index vectors). Tuples are fixed-width
/// int32_t position vectors stored back to back in one flat buffer — no
/// per-tuple allocation, exact byte accounting, cache-friendly scans.
///
/// One ingestion mode: Append(), a plain ordered append. Engines that
/// produce each tuple exactly once (Skinner-G/H commits, baselines,
/// forced-order execution) append their final result. Skinner-C may emit
/// a tuple more than once — resuming from a shared-prefix frontier
/// re-derives tuples (paper 4.5), and parallel workers can overlap — so
/// each of its workers appends everything it emits into a private set and
/// MergeSortedUnique removes the duplicates once, at export.
///
/// Not thread-safe: one writer, no concurrent readers.
class ResultSet {
 public:
  /// `width`: ints per tuple (= number of tables), at least 1.
  explicit ResultSet(int width);

  int width() const { return width_; }

  /// Tuples stored, duplicates included.
  size_t size() const { return buffer_.size() / static_cast<size_t>(width_); }

  /// Exact heap footprint of the buffer.
  size_t bytes() const { return buffer_.capacity() * sizeof(int32_t); }

  void Append(const int32_t* tuple) {
    buffer_.insert(buffer_.end(), tuple, tuple + width_);
  }
  void Append(const PosTuple& tuple) { Append(tuple.data()); }

  /// Visits every stored tuple as a const int32_t* of `width` ints, in
  /// insertion order.
  template <class Fn>
  void ForEach(Fn&& fn) const {
    const size_t w = static_cast<size_t>(width_);
    for (size_t off = 0; off < buffer_.size(); off += w) {
      fn(buffer_.data() + off);
    }
  }

  /// Materializes all tuples (insertion order).
  std::vector<PosTuple> ToVector() const;

  /// Appends the distinct tuples to `out` in canonical (lexicographically
  /// sorted) order. A PosTuple adapter over MergeSortedUnique({this}).
  void ExportSorted(std::vector<PosTuple>* out) const;

  /// Appends the distinct tuples of all `parts` to `out` in canonical
  /// (lexicographically sorted, signed int32_t per column) order, dropping
  /// duplicates within and across parts; rows already in `out` are kept
  /// as they are. The result depends only on the multiset union of the
  /// parts, so the export is bit-identical for any split of the same
  /// tuples across parts — any thread count or schedule. `out` must have
  /// the parts' width and must not be one of them.
  ///
  /// Sorts row pointers, never copying a row before it is written to
  /// `out`: a counting pass buckets rows by their first column when that
  /// column's value range is small against the row count, and each bucket
  /// is then sorted by the remaining columns; otherwise one comparison
  /// sort orders all rows.
  static void MergeSortedUnique(const std::vector<const ResultSet*>& parts,
                                ResultSet* out);

 private:
  int width_;
  std::vector<int32_t> buffer_;  // width-strided tuples
};

}  // namespace skinner

#endif  // SKINNER_EXEC_RESULT_SET_H_
