// Bounded memo map behind msg::Comm's plan memo.
//
// Eviction is a full clear, not LRU: a hit stays one hash probe, and a
// dropped entry only costs a re-simulation, never a different number.
// No lock: see the ownership note on Comm's memo member.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace qsm::msg {

/// Memo counters (host diagnostics, never in a trace).
struct MemoStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t installs{0};
  std::uint64_t clears{0};
  /// Entries skipped for size. Comm's counters have no size cap, so this
  /// reads 0; the e2e benchmark still reports it by name.
  std::uint64_t oversize{0};
};

template <typename Key, typename Value, typename Hash>
class BoundedMemo {
 public:
  /// A store that would make more than `max_entries` entries clears first.
  explicit BoundedMemo(std::size_t max_entries) : max_entries_(max_entries) {}

  /// One probe; counts a hit or a miss. The pointer is valid until the
  /// next insert().
  [[nodiscard]] const Value* find(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    return &it->second;
  }

  /// Stores an entry for a key find() just missed.
  void insert(Key key, Value value) {
    if (map_.size() + 1 > max_entries_) {
      map_.clear();
      ++stats_.clears;
    }
    map_.emplace(std::move(key), std::move(value));
    ++stats_.installs;
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] MemoStats stats() const { return stats_; }

 private:
  std::size_t max_entries_;
  std::unordered_map<Key, Value, Hash> map_;
  MemoStats stats_;
};

}  // namespace qsm::msg
