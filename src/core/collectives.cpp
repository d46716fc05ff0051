#include "core/collectives.hpp"

#include <algorithm>

#include "support/contract.hpp"

namespace qsm::rt {

Collectives::Collectives(Runtime& runtime, std::string name)
    : scratch_(runtime), p_(runtime.nprocs()) {
  const auto up = static_cast<std::uint64_t>(p_);
  // Transposed, cyclically laid out slot matrix: slot[i*p + j] carries node
  // i's value *for* node j, and the cyclic owner of i*p + j is j. A node's
  // outgoing row is therefore contiguous — two put_range spans around the
  // diagonal reach all p-1 other owners with O(1) enqueued requests — and
  // its incoming column {i*p + me} is entirely local. Word-for-word the
  // traffic is identical to the classic one-word-per-destination scatter
  // (one word from every i to every j != i, same enqueue charge, same
  // locations), so phase traces are bit-identical to the previous dense
  // request build; only the host-side request count drops from O(p) to
  // O(1) per node, which is what lets the sparse traffic pipeline (and
  // Comm::alltoallv_sparse behind it) price these phases from strided runs
  // instead of dense per-node rows.
  slots_ = scratch_.alloc<std::int64_t>(up * up, Layout::Cyclic,
                                        std::move(name));
}

std::vector<std::int64_t> Collectives::exchange(Context& ctx,
                                                std::int64_t value) {
  const auto up = static_cast<std::uint64_t>(p_);
  const auto me = static_cast<std::uint64_t>(ctx.rank());
  const std::uint64_t row = me * up;
  const std::vector<std::int64_t> replicated(up, value);
  ctx.write_local(slots_, row + me, value);
  ctx.put_range(slots_, row, me, replicated.data());
  ctx.put_range(slots_, row + me + 1, up - me - 1, replicated.data());
  ctx.sync();
  std::vector<std::int64_t> gathered(up);
  for (std::uint64_t i = 0; i < up; ++i) {
    gathered[i] = ctx.read_local(slots_, i * up + me);
  }
  ctx.charge_ops(p_);
  return gathered;
}

std::int64_t Collectives::broadcast(Context& ctx, std::int64_t value,
                                    int root) {
  QSM_REQUIRE(root >= 0 && root < p_, "broadcast root out of range");
  // Non-roots still participate in the phase (their contribution is
  // ignored) so the program stays bulk-synchronous.
  const auto row = exchange(ctx, value);
  return row[static_cast<std::uint64_t>(root)];
}

std::int64_t Collectives::allreduce_sum(Context& ctx, std::int64_t value) {
  const auto row = exchange(ctx, value);
  std::int64_t sum = 0;
  for (const std::int64_t v : row) sum += v;
  return sum;
}

std::int64_t Collectives::allreduce_max(Context& ctx, std::int64_t value) {
  const auto row = exchange(ctx, value);
  return *std::max_element(row.begin(), row.end());
}

std::int64_t Collectives::exscan_sum(Context& ctx, std::int64_t value) {
  const auto row = exchange(ctx, value);
  std::int64_t sum = 0;
  for (int i = 0; i < ctx.rank(); ++i) {
    sum += row[static_cast<std::uint64_t>(i)];
  }
  return sum;
}

std::vector<std::int64_t> Collectives::allgather(Context& ctx,
                                                 std::int64_t value) {
  return exchange(ctx, value);
}

}  // namespace qsm::rt
