// Carrier-count parity: the lane engine's equivalence oracle.
//
// Program lanes are fibers multiplexed onto carrier threads, and the
// runtime's determinism contract says the carrier count may not change one
// simulated number. This suite runs the three paper algorithms across seeds
// and machine sizes — up to p = 64 — on one carrier (host thread budget 1:
// every lane runs in rank order on one thread) and on min(p, 16) carriers
// (budget 16: lanes interleave across threads), and demands bit-identical
// results: full RunResult equality (every PhaseStats field of every phase),
// matching per-phase FNV-1a hashes for a readable failure digest, and
// identical output data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "algos/listrank.hpp"
#include "algos/prefix.hpp"
#include "algos/samplesort.hpp"
#include "machine/presets.hpp"
#include "support/rng.hpp"

namespace qsm {
namespace {

constexpr std::uint64_t kSeeds[] = {42, 1234};
constexpr int kProcs[] = {4, 16, 64};

/// FNV-1a over one phase's stats; per-phase hashes point a failure at the
/// first diverging phase instead of a wall of field diffs.
std::uint64_t phase_hash(const rt::PhaseStats& ps) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(ps.arrival_spread));
  mix(static_cast<std::uint64_t>(ps.exchange_cycles));
  mix(static_cast<std::uint64_t>(ps.barrier_cycles));
  mix(static_cast<std::uint64_t>(ps.m_op_max));
  mix(ps.m_rw_max);
  mix(ps.max_put_words);
  mix(ps.max_get_words);
  mix(ps.rw_total);
  mix(ps.local_words);
  mix(ps.kappa);
  mix(ps.messages);
  mix(static_cast<std::uint64_t>(ps.wire_bytes));
  return h;
}

/// Aggregate hash over the whole trace (same scheme as the golden suite).
std::uint64_t trace_hash(const rt::RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& ps : r.trace) {
    h ^= phase_hash(ps);
    h *= 1099511628211ULL;
  }
  return h;
}

struct LaneRun {
  rt::RunResult timing;
  std::vector<std::int64_t> output;
  int carriers{0};
};

void expect_parity(const LaneRun& one, const LaneRun& wide,
                   const std::string& what) {
  ASSERT_EQ(one.timing.phases, wide.timing.phases) << what;
  for (std::size_t i = 0; i < one.timing.trace.size(); ++i) {
    EXPECT_EQ(phase_hash(one.timing.trace[i]),
              phase_hash(wide.timing.trace[i]))
        << what << ": phase " << i << " diverged";
  }
  EXPECT_EQ(trace_hash(one.timing), trace_hash(wide.timing)) << what;
  // The hashes locate a diff; full field-by-field equality is the claim.
  EXPECT_EQ(one.timing, wide.timing) << what;
  EXPECT_EQ(one.output, wide.output) << what;
}

/// Restores the hardware-default host thread budget, however a sweep ends.
struct BudgetReset {
  ~BudgetReset() { rt::set_host_thread_budget(0); }
};

rt::Options parity_options(std::uint64_t seed) {
  return rt::Options{.seed = seed, .check_rules = true, .track_kappa = true};
}

std::vector<std::int64_t> random_values(std::uint64_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng() >> 1);
  return v;
}

LaneRun run_prefix(int p, std::uint64_t seed) {
  rt::Runtime runtime(machine::default_sim(p), parity_options(seed));
  auto data = runtime.alloc<std::int64_t>(1 << 15);
  runtime.host_fill(data, random_values(1 << 15, seed ^ 3));
  auto timing = algos::parallel_prefix(runtime, data).timing;
  return {std::move(timing), runtime.host_read(data), runtime.host_carriers()};
}

LaneRun run_samplesort(int p, std::uint64_t seed) {
  // n must satisfy the algorithm's p^2 log n <= n requirement at p = 64.
  constexpr std::uint64_t n = 1 << 17;
  rt::Runtime runtime(machine::default_sim(p), parity_options(seed));
  auto data = runtime.alloc<std::int64_t>(n);
  runtime.host_fill(data, random_values(n, seed ^ 7));
  auto timing = algos::sample_sort(runtime, data).timing;
  return {std::move(timing), runtime.host_read(data), runtime.host_carriers()};
}

LaneRun run_listrank(int p, std::uint64_t seed) {
  const auto list = algos::make_random_list(1 << 13, seed ^ 5);
  rt::Runtime runtime(machine::default_sim(p), parity_options(seed));
  auto ranks = runtime.alloc<std::int64_t>(1 << 13);
  auto timing = algos::list_rank(runtime, list, ranks).timing;
  return {std::move(timing), runtime.host_read(ranks), runtime.host_carriers()};
}

template <typename RunFn>
void parity_sweep(const char* algo, RunFn run) {
  BudgetReset reset;
  for (const std::uint64_t seed : kSeeds) {
    for (const int p : kProcs) {
      const std::string what = std::string(algo) + " p=" + std::to_string(p) +
                               " seed=" + std::to_string(seed);
      SCOPED_TRACE(what);
      rt::set_host_thread_budget(1);
      const LaneRun one = run(p, seed);
      ASSERT_EQ(one.carriers, 1) << what;
      rt::set_host_thread_budget(16);
      const LaneRun wide = run(p, seed);
      ASSERT_EQ(wide.carriers, std::min(p, 16)) << what;
      expect_parity(one, wide, what);
    }
  }
}

TEST(LaneParity, PrefixBitIdenticalAcrossCarrierCounts) {
  parity_sweep("prefix", run_prefix);
}

TEST(LaneParity, SamplesortBitIdenticalAcrossCarrierCounts) {
  parity_sweep("samplesort", run_samplesort);
}

TEST(LaneParity, ListrankBitIdenticalAcrossCarrierCounts) {
  parity_sweep("listrank", run_listrank);
}

}  // namespace
}  // namespace qsm
