#ifndef SKINNER_STORAGE_STRING_POOL_H_
#define SKINNER_STORAGE_STRING_POOL_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace skinner {

/// Database-wide append-only string interner. Every distinct string value
/// stored in any column receives one int32 id. Equality joins on string
/// columns therefore reduce to integer comparisons, which is what makes the
/// tuple-index-only execution state of Skinner-C cheap for string data too.
///
/// Thread-safety: Intern and Lookup serialize on a mutex; Get and size
/// take no lock, because every string column read of a filter morsel
/// lands in Get. Interned strings are immutable and live in a fixed
/// directory of segments that are never moved or freed before the pool
/// is, so the reference Get returns stays valid for the pool's lifetime.
/// Visibility rule: Get(id) is safe for any id the caller obtained through
/// a synchronizing path (Intern's return value, a column filled before the
/// reading thread was started or joined, a lock or a release/acquire
/// handoff), and for any id below a size() the caller has read.
class StringPool {
 public:
  StringPool() = default;
  ~StringPool();
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  /// Returns the id for `s`, interning it on first sight.
  int32_t Intern(std::string_view s);

  /// Returns the id for `s` or -1 if it was never interned. Useful for
  /// probing literals: a literal absent from the pool matches nothing.
  int32_t Lookup(std::string_view s) const;

  const std::string& Get(int32_t id) const {
    assert(id >= 0 && static_cast<size_t>(id) < size());
    const uint32_t u = static_cast<uint32_t>(id);
    const int k = SegmentOf(u);
    return segments_[k].load(std::memory_order_acquire)[u - SegmentStart(k)];
  }

  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  // Segment k holds kFirstSegment << k strings, starting at id
  // SegmentStart(k); kNumSegments of them cover every non-negative int32.
  static constexpr uint32_t kFirstSegmentBits = 6;
  static constexpr uint32_t kFirstSegment = 1u << kFirstSegmentBits;
  static constexpr int kNumSegments = 26;
  static_assert((uint64_t{kFirstSegment} << kNumSegments) - kFirstSegment >
                    uint64_t{INT32_MAX},
                "segment directory must cover every int32 id");

  static int SegmentOf(uint32_t id) {
    // id + kFirstSegment lies in [kFirstSegment << k, kFirstSegment << (k+1)).
    return 31 - __builtin_clz(id + kFirstSegment) -
           static_cast<int>(kFirstSegmentBits);
  }
  static uint32_t SegmentStart(int k) {
    return (kFirstSegment << k) - kFirstSegment;
  }

  mutable std::mutex mu_;  // guards index_ and all writes
  // Raw storage; only ids below size_ hold constructed strings.
  std::atomic<std::string*> segments_[kNumSegments] = {};
  std::atomic<size_t> size_{0};
  std::unordered_map<std::string_view, int32_t> index_;  // views into segments_
};

}  // namespace skinner

#endif  // SKINNER_STORAGE_STRING_POOL_H_
