#include "core/store.hpp"

#include <utility>

namespace qsm::rt {

SharedStore::Handle SharedStore::allocate(std::uint64_t n, Layout layout,
                                          std::string name) {
  QSM_REQUIRE(n > 0, "cannot allocate an empty shared array");
  // Salt and default name come from the allocation counter, not the slot
  // table, so recycling never perturbs Hashed layouts (see file comment).
  const std::uint64_t seq = alloc_seq_++;
  ArraySlot s;
  s.name = name.empty() ? ("array" + std::to_string(seq)) : std::move(name);
  s.layout = layout;
  s.salt = support::SplitMix64(seed_ ^ (seq + 0x51ULL)).next();
  s.n = n;
  s.chunk = block_chunk(n, nprocs_);
  s.data.assign(n, 0);

  if (!free_ids_.empty()) {
    const std::uint32_t id = free_ids_.back();
    free_ids_.pop_back();
    const std::uint32_t gen = slots_[id].generation;
    s.generation = gen;
    slots_[id] = std::move(s);
    return Handle{id, gen};
  }
  QSM_REQUIRE(slots_.size() < kMaxArraySlots,
              "shared-array slot table exhausted (2^24 live arrays)");
  const auto id = static_cast<std::uint32_t>(slots_.size());
  const std::uint32_t gen = s.generation;
  slots_.push_back(std::move(s));
  return Handle{id, gen};
}

void SharedStore::release(std::uint32_t id, std::uint32_t generation) {
  ArraySlot& s = slot(id, generation);  // rejects stale handles/double free
  s.freed = true;
  s.generation++;
  s.data.clear();
  s.data.shrink_to_fit();
  free_ids_.push_back(id);
}

ArraySlot& SharedStore::slot(std::uint32_t id, std::uint32_t generation) {
  return const_cast<ArraySlot&>(
      std::as_const(*this).slot(id, generation));
}

const ArraySlot& SharedStore::slot(std::uint32_t id,
                                   std::uint32_t generation) const {
  QSM_REQUIRE(id < slots_.size(), "invalid GlobalArray handle");
  const ArraySlot& s = slots_[id];
  QSM_REQUIRE(!s.freed, "use of freed shared array '" + s.name + "'");
  QSM_REQUIRE(s.generation == generation,
              "use of stale GlobalArray handle: slot of '" + s.name +
                  "' was freed and reallocated");
  return s;
}

}  // namespace qsm::rt
