#include "algos/prefix.hpp"

#include "support/contract.hpp"

namespace qsm::algos {

namespace {
/// Prefix sums over arbitrary inputs are expected to wrap; do the addition
/// in unsigned arithmetic so the (two's-complement-identical) wraparound is
/// defined behavior instead of signed overflow.
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
}  // namespace

std::vector<std::int64_t> sequential_prefix(
    const std::vector<std::int64_t>& in) {
  std::vector<std::int64_t> out;
  out.reserve(in.size());
  std::int64_t acc = 0;
  for (std::int64_t v : in) {
    acc = wrap_add(acc, v);
    out.push_back(acc);
  }
  return out;
}

PrefixOutcome parallel_prefix(rt::Runtime& runtime,
                              rt::GlobalArray<std::int64_t> data) {
  const int p = runtime.nprocs();
  const std::uint64_t n = data.n;
  QSM_REQUIRE(static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p) <=
                  n || p == 1,
              "parallel prefix wants p <= sqrt(n)");

  // Per-call scratch, freed on return and on throw.
  rt::ScopedArrays arrays(runtime);
  // Sums[i*p + j] = block total of node j, in node i's row (block layout
  // puts row i on node i, so the broadcast is p-1 remote puts per node).
  auto sums = arrays.alloc<std::int64_t>(
      static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p),
      rt::Layout::Block, "prefix-sums");

  PrefixOutcome out;
  out.timing = runtime.run([&](rt::Context& ctx) {
    const int me = ctx.rank();
    const auto ume = static_cast<std::uint64_t>(me);
    const auto up = static_cast<std::uint64_t>(p);
    const auto range = rt::block_range(n, p, me);
    const std::int64_t ws =
        static_cast<std::int64_t>(range.size()) * 8;

    // Step 1: local prefix sums over the owned block, in place.
    std::int64_t acc = 0;
    for (std::uint64_t i = range.begin; i < range.end; ++i) {
      acc = wrap_add(acc, ctx.read_local(data, i));
      ctx.write_local(data, i, acc);
    }
    ctx.charge_ops(static_cast<std::int64_t>(range.size()));
    ctx.charge_mem(2 * static_cast<std::int64_t>(range.size()), ws);

    // Step 2: broadcast the block total to every other node.
    for (int j = 0; j < p; ++j) {
      const std::uint64_t slot = static_cast<std::uint64_t>(j) * up + ume;
      if (j == me) {
        ctx.write_local(sums, slot, acc);
      } else {
        ctx.put(sums, slot, acc);
      }
    }
    ctx.sync();  // the algorithm's single synchronization

    // Step 3: add the offset of all preceding nodes.
    std::int64_t offset = 0;
    for (std::uint64_t j = 0; j < ume; ++j) {
      offset = wrap_add(offset, ctx.read_local(sums, ume * up + j));
    }
    ctx.charge_ops(p);
    if (offset != 0) {
      for (std::uint64_t i = range.begin; i < range.end; ++i) {
        ctx.write_local(data, i, wrap_add(ctx.read_local(data, i), offset));
      }
    }
    ctx.charge_ops(static_cast<std::int64_t>(range.size()));
    ctx.charge_mem(2 * static_cast<std::int64_t>(range.size()), ws);
  });
  return out;
}

}  // namespace qsm::algos
