// Shared-array storage: the bottom layer of the runtime.
//
// SharedStore owns every shared array's backing words, its layout metadata,
// and the ownership queries the phase pipeline runs against it. It is the
// only component that knows how an index maps to an owning node, and it
// answers that question at *run* granularity where the layout allows:
// Block-layout ownership is closed-form over contiguous index runs and
// Cyclic-layout ownership is closed-form per owner over a strided run, so
// classifying a million-word range costs O(p) instead of a per-word call.
//
// Handles are generation-checked: releasing a slot bumps its generation and
// recycles the id for the next allocation, so long-lived runtimes that
// allocate and free per-call scratch neither grow the slot table nor exhaust
// the 24-bit array-id space of the phase pipeline's location keys — while
// any stale handle (including a double free) still faults loudly.
//
// Determinism contract: layout salts and default names derive from a
// monotonic allocation counter, never from the slot table's occupancy, so a
// program's Hashed layouts (and therefore its simulated timing) are
// identical whether or not earlier scratch arrays were freed — and identical
// to the pre-layering runtime, which never recycled slots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/layout.hpp"
#include "support/contract.hpp"
#include "support/rng.hpp"

namespace qsm::rt {

/// Location keys pack (array id, index) into 64 bits: 24 bits of array id,
/// 40 bits of index.
inline constexpr std::uint64_t kLocIndexBits = 40;
inline constexpr std::uint32_t kMaxArraySlots = 1u << 24;

struct ArraySlot {
  std::string name;
  Layout layout{Layout::Block};
  std::uint64_t salt{0};
  std::uint64_t n{0};
  /// Cached Block-layout chunk size (ceil(n / p)); unused by other layouts.
  std::uint64_t chunk{1};
  std::uint32_t generation{0};
  bool freed{false};
  std::vector<std::uint64_t> data;  // one word per element
};

class SharedStore {
 public:
  SharedStore(std::uint64_t seed, int nprocs)
      : seed_(seed), nprocs_(nprocs) {}

  struct Handle {
    std::uint32_t id;
    std::uint32_t generation;
  };

  /// Allocates an n-element zeroed slot, reusing a freed id when one is
  /// available. `name` may be empty (a default is derived from the
  /// allocation counter).
  Handle allocate(std::uint64_t n, Layout layout, std::string name);

  /// Releases a slot's storage and recycles its id; the generation bump
  /// invalidates every outstanding handle to it.
  void release(std::uint32_t id, std::uint32_t generation);

  /// Validated access; throws ContractViolation for stale or bogus handles.
  [[nodiscard]] ArraySlot& slot(std::uint32_t id, std::uint32_t generation);
  [[nodiscard]] const ArraySlot& slot(std::uint32_t id,
                                      std::uint32_t generation) const;

  /// Unvalidated access for the phase pipeline: every enqueued request was
  /// validated at enqueue time and slots cannot be released mid-run.
  [[nodiscard]] ArraySlot& slot_unchecked(std::uint32_t id) {
    return slots_[id];
  }
  [[nodiscard]] const ArraySlot& slot_unchecked(std::uint32_t id) const {
    return slots_[id];
  }

  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] std::uint64_t allocations() const { return alloc_seq_; }

  [[nodiscard]] int owner(const ArraySlot& s, std::uint64_t idx) const {
    if (s.layout == Layout::Block) {
      QSM_ASSERT(idx < s.n, "index out of array bounds");
      return static_cast<int>(idx / s.chunk);
    }
    return owner_of(s.layout, idx, s.n, nprocs_, s.salt);
  }

  /// Calls fn(owner, begin, count) for each maximal single-owner run of
  /// [start, start + count) under Block layout. O(runs), not O(words).
  template <typename Fn>
  void for_each_block_run(const ArraySlot& s, std::uint64_t start,
                          std::uint64_t count, Fn&& fn) const {
    QSM_ASSERT(s.layout == Layout::Block, "block run decomposition misuse");
    std::uint64_t at = start;
    const std::uint64_t end = start + count;
    while (at < end) {
      const std::uint64_t owner_id = at / s.chunk;
      const std::uint64_t run_end = std::min(end, (owner_id + 1) * s.chunk);
      fn(static_cast<int>(owner_id), at, run_end - at);
      at = run_end;
    }
  }

  /// Calls fn(owner, words) for the owners of [start, start + count); the
  /// words of all calls sum to count. Block and Cyclic call once per owner
  /// touched, in ascending owner order, in closed form; Hashed calls once
  /// per word, with words = 1.
  template <typename Fn>
  void for_each_owner(const ArraySlot& s, std::uint64_t start,
                      std::uint64_t count, Fn&& fn) const {
    const auto p = static_cast<std::uint64_t>(nprocs_);
    switch (s.layout) {
      case Layout::Block:
        for_each_block_run(s, start, count,
                           [&](int o, std::uint64_t, std::uint64_t len) {
                             fn(o, len);
                           });
        return;
      case Layout::Cyclic: {
        // Index start + t, for t < min(count, p), is the first of owner
        // (start + t) mod p's ceil((count - t) / p) words. Those owners
        // form one interval of the ring; when it wraps past p - 1, its
        // part at the bottom of the ring comes first.
        const std::uint64_t first = start % p;
        const std::uint64_t end = first + std::min(count, p);
        const auto words = [&](std::uint64_t t) {
          return (count - t + p - 1) / p;
        };
        for (std::uint64_t o = 0; o + p < end; ++o) {
          fn(static_cast<int>(o), words(o + p - first));
        }
        for (std::uint64_t o = first; o < std::min(end, p); ++o) {
          fn(static_cast<int>(o), words(o - first));
        }
        return;
      }
      case Layout::Hashed:
        for (std::uint64_t k = start; k < start + count; ++k) {
          fn(static_cast<int>(hash_index(k, s.salt) % p), std::uint64_t{1});
        }
        return;
    }
  }

 private:
  std::uint64_t seed_;
  int nprocs_;
  std::uint64_t alloc_seq_{0};
  std::vector<ArraySlot> slots_;
  std::vector<std::uint32_t> free_ids_;
};

}  // namespace qsm::rt
