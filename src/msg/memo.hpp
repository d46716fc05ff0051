// Bounded memo map behind msg::Comm's exchange memos.
//
// Eviction is a full clear, not LRU: a hit stays one hash probe, and a
// dropped entry only costs a re-simulation, never a different number.
// No lock: see the ownership note on Comm's memo members.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

namespace qsm::msg {

/// Memo counters (host diagnostics, never in a trace).
struct MemoStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t installs{0};
  std::uint64_t clears{0};
  std::uint64_t oversize{0};  ///< entries over the per-entry cap, not stored
};

/// `Hash` and `Eq` may be transparent (declare `is_transparent`) so find()
/// can probe with a borrowed view that constructs no Key.
template <typename Key, typename Value, typename Hash,
          typename Eq = std::equal_to<>>
class BoundedMemo {
 public:
  /// Capacity rules; 0 leaves a bound off.
  struct Caps {
    /// A store that would make more entries than this clears first.
    std::size_t max_entries{0};
    /// A store that would pass this many total words clears first.
    std::size_t max_words{0};
    /// An entry heavier than this is counted as oversize and not stored;
    /// the memo is left as it was.
    std::size_t max_entry_words{0};
  };

  explicit BoundedMemo(Caps caps) : caps_(caps) {}

  /// One probe; counts a hit or a miss. The pointer is valid until the
  /// next insert().
  template <typename Probe>
  [[nodiscard]] const Value* find(const Probe& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    return &it->second;
  }

  /// Stores an entry for a key find() just missed. `words` is its weight
  /// against max_words and max_entry_words. `key` is a Key or anything a
  /// Key is constructed from, such as a borrowed view, which is copied
  /// only if the entry is stored.
  template <typename K>
  void insert(K&& key, Value value, std::size_t words = 1) {
    if (caps_.max_entry_words != 0 && words > caps_.max_entry_words) {
      ++stats_.oversize;
      return;
    }
    if ((caps_.max_entries != 0 && map_.size() + 1 > caps_.max_entries) ||
        (caps_.max_words != 0 && words_ + words > caps_.max_words)) {
      map_.clear();
      words_ = 0;
      ++stats_.clears;
    }
    map_.emplace(std::forward<K>(key), std::move(value));
    words_ += words;
    ++stats_.installs;
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] MemoStats stats() const { return stats_; }

 private:
  Caps caps_;
  std::unordered_map<Key, Value, Hash, Eq> map_;
  std::size_t words_{0};
  MemoStats stats_;
};

}  // namespace qsm::msg
