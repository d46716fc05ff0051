// Word-granularity collectives on top of the QSM runtime.
//
// The paper's algorithms keep re-deriving the same one-phase pattern: every
// node deposits one word for every other node into a p x p slot matrix and
// reads its own incoming column locally after the sync. Collectives
// packages that pattern behind the obvious interfaces — each call is one
// bulk-synchronous phase costing g(p-1) per node, the same as the
// prefix-sums algorithm's communication. The slot matrix is transposed and
// cyclically laid out so each node's outgoing words are two contiguous
// put_range spans (O(1) enqueued requests instead of p-1 single-word
// puts); the simulated traffic — and therefore every trace — is identical
// to the classic formulation (pinned by the sparse/dense parity test).
//
// All calls are collective: every node must make the same call in the same
// phase. A Collectives object owns its scratch array, frees it when it is
// destroyed, and may be reused for any number of consecutive operations.
#pragma once

#include <cstdint>
#include <vector>

#include "core/runtime.hpp"

namespace qsm::rt {

class Collectives {
 public:
  /// Allocates the p*p scratch matrix on `runtime`. Construct before
  /// Runtime::run and destroy after it (allocation and free are
  /// host-side); the runtime must outlive the object.
  explicit Collectives(Runtime& runtime, std::string name = "collectives");

  /// Every node receives root's value. One phase.
  [[nodiscard]] std::int64_t broadcast(Context& ctx, std::int64_t value,
                                       int root);

  /// Every node receives the sum of all contributions. One phase.
  [[nodiscard]] std::int64_t allreduce_sum(Context& ctx, std::int64_t value);

  /// Every node receives the max of all contributions. One phase.
  [[nodiscard]] std::int64_t allreduce_max(Context& ctx, std::int64_t value);

  /// Exclusive prefix sum: node i receives the sum of contributions from
  /// nodes 0..i-1 (0 on node 0). One phase.
  [[nodiscard]] std::int64_t exscan_sum(Context& ctx, std::int64_t value);

  /// Every node receives the full vector of contributions, indexed by
  /// rank. One phase.
  [[nodiscard]] std::vector<std::int64_t> allgather(Context& ctx,
                                                    std::int64_t value);

 private:
  /// The shared phase: scatter `value` to every node's row, sync, and
  /// return this node's row.
  std::vector<std::int64_t> exchange(Context& ctx, std::int64_t value);

  ScopedArrays scratch_;
  GlobalArray<std::int64_t> slots_;
  int p_;
};

}  // namespace qsm::rt
