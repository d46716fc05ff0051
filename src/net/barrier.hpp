// Barrier-synchronization cost model.
//
// The library ends every bulk-synchronous phase with a tree barrier:
// ceil(log2 p) combine rounds up the tree and ceil(log2 p) release rounds
// back down, each round a small control message. We provide an
// event-driven simulation of the tree with per-node arrival times (what
// msg::Comm::barrier prices every sync with) and a closed form for
// simultaneous arrival (the oracle the tests check the simulation
// against).
#pragma once

#include <vector>

#include "net/params.hpp"
#include "support/cycles.hpp"

namespace qsm::net {

/// Number of up (or down) rounds in a binomial barrier tree.
[[nodiscard]] int barrier_rounds(int p);

/// Closed-form cost of the two-pass tree barrier, assuming all nodes arrive
/// simultaneously. With the paper's default parameters and p = 16 this lands
/// near the 25,500-cycle barrier reported in Table 3.
[[nodiscard]] cycles_t tree_barrier_cost(const NetworkParams& hw,
                                         const SoftwareParams& sw, int p);

/// Event-driven simulation of the same binomial tree with per-node arrival
/// times; returns the release time of the last node.
[[nodiscard]] cycles_t simulate_tree_barrier(
    const NetworkParams& hw, const SoftwareParams& sw,
    const std::vector<cycles_t>& arrive);

}  // namespace qsm::net
