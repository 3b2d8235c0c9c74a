#include "storage/string_pool.h"

#include <algorithm>
#include <new>

namespace skinner {

StringPool::~StringPool() {
  const size_t n = size_.load(std::memory_order_relaxed);
  for (int k = 0; k < kNumSegments; ++k) {
    std::string* seg = segments_[k].load(std::memory_order_relaxed);
    if (seg == nullptr) break;
    const size_t start = SegmentStart(k);
    const size_t live =
        std::min<size_t>(kFirstSegment << k, n > start ? n - start : 0);
    for (size_t i = 0; i < live; ++i) seg[i].~basic_string();
    ::operator delete(seg);
  }
}

int32_t StringPool::Intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const size_t n = size_.load(std::memory_order_relaxed);
  assert(n <= static_cast<size_t>(INT32_MAX));
  const uint32_t id = static_cast<uint32_t>(n);
  const int k = SegmentOf(id);
  std::string* seg = segments_[k].load(std::memory_order_relaxed);
  if (seg == nullptr) {
    // Uninitialized storage: pages a segment's tail never uses are never
    // touched, so a half-filled segment costs only what it holds.
    seg = static_cast<std::string*>(
        ::operator new(sizeof(std::string) * (size_t{kFirstSegment} << k)));
    segments_[k].store(seg, std::memory_order_release);
  }
  // Segments never move, so the key view into the new string (SSO buffer
  // included) stays valid across later growth.
  std::string* str = new (seg + (id - SegmentStart(k))) std::string(s);
  index_.emplace(std::string_view(*str), static_cast<int32_t>(id));
  size_.store(n + 1, std::memory_order_release);
  return static_cast<int32_t>(id);
}

int32_t StringPool::Lookup(std::string_view s) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(s);
  return it == index_.end() ? -1 : it->second;
}

}  // namespace skinner
