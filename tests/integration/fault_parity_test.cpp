// Fault-determinism parity: the fault layer's equivalence oracle.
//
// Faulted runs must obey the same determinism contract as fault-free ones:
// every fault draw is a pure function of (fault seed, phase, node/message
// counters), so the carrier count and the host worker count may not change
// one simulated number, one retry, or one replay. This suite runs prefix
// and list ranking under an aggressive mixed fault model across seeds and
// machine sizes, on one carrier vs min(p, 16) carriers and at 1 vs 8 host
// workers, and demands bit-identical traces (per-phase FNV-1a digests
// locate any divergence) and identical output data — replayed phases
// included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "algos/listrank.hpp"
#include "algos/prefix.hpp"
#include "machine/presets.hpp"
#include "support/rng.hpp"

namespace qsm {
namespace {

constexpr std::uint64_t kSeeds[] = {42, 1234, 7};
constexpr int kProcs[] = {4, 16, 64};

/// FNV-1a over one phase's stats, fault fields included.
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
  mix(ps.retries);
  mix(ps.drops);
  mix(ps.duplicates);
  mix(ps.replays);
  mix(ps.p_effective);
  return h;
}

machine::MachineConfig faulty_machine(int p) {
  auto m = machine::default_sim(p);
  auto& f = m.net.fault;
  f.drop_prob = 0.05;
  f.dup_prob = 0.02;
  f.delay_prob = 0.02;
  f.stall_prob = 0.1;
  f.slow_prob = 0.1;
  f.node_fail_prob = 0.01;
  f.seed = 99;
  f.validate();
  return m;
}

struct LaneRun {
  rt::RunResult timing;
  std::vector<std::int64_t> output;
  int carriers{0};
};

void expect_parity(const LaneRun& a, const LaneRun& b,
                   const std::string& what) {
  ASSERT_EQ(a.timing.phases, b.timing.phases) << what;
  for (std::size_t i = 0; i < a.timing.trace.size(); ++i) {
    EXPECT_EQ(phase_hash(a.timing.trace[i]), phase_hash(b.timing.trace[i]))
        << what << ": phase " << i << " diverged";
  }
  EXPECT_EQ(a.timing, b.timing) << what;
  EXPECT_EQ(a.output, b.output) << what;
}

/// Restores the hardware-default host thread budget, however a sweep ends.
struct BudgetReset {
  ~BudgetReset() { rt::set_host_thread_budget(0); }
};

rt::Options fault_options(std::uint64_t seed, int host_workers) {
  return rt::Options{.seed = seed,
                     .check_rules = true,
                     .track_kappa = true,
                     .host_workers = host_workers};
}

std::vector<std::int64_t> random_values(std::uint64_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng() >> 1);
  return v;
}

LaneRun run_prefix(int p, std::uint64_t seed, int host_workers) {
  rt::Runtime runtime(faulty_machine(p), fault_options(seed, host_workers));
  auto data = runtime.alloc<std::int64_t>(1 << 14);
  runtime.host_fill(data, random_values(1 << 14, seed ^ 3));
  auto timing = algos::parallel_prefix(runtime, data).timing;
  return {std::move(timing), runtime.host_read(data), runtime.host_carriers()};
}

LaneRun run_listrank(int p, std::uint64_t seed, int host_workers) {
  const auto list = algos::make_random_list(1 << 12, seed ^ 5);
  rt::Runtime runtime(faulty_machine(p), fault_options(seed, host_workers));
  auto ranks = runtime.alloc<std::int64_t>(1 << 12);
  auto timing = algos::list_rank(runtime, list, ranks).timing;
  return {std::move(timing), runtime.host_read(ranks), runtime.host_carriers()};
}

/// One carrier (host thread budget 1, lanes in rank order) against
/// min(p, 16) carriers (budget 16).
template <typename RunFn>
void carrier_parity_sweep(const char* algo, RunFn run) {
  BudgetReset reset;
  std::uint64_t fault_events = 0;
  for (const std::uint64_t seed : kSeeds) {
    for (const int p : kProcs) {
      const std::string what = std::string(algo) + " p=" + std::to_string(p) +
                               " seed=" + std::to_string(seed);
      SCOPED_TRACE(what);
      rt::set_host_thread_budget(1);
      const LaneRun one = run(p, seed, 0);
      ASSERT_EQ(one.carriers, 1) << what;
      rt::set_host_thread_budget(16);
      const LaneRun wide = run(p, seed, 0);
      ASSERT_EQ(wide.carriers, std::min(p, 16)) << what;
      expect_parity(one, wide, what);
      fault_events += one.timing.retries + one.timing.drops +
                      one.timing.duplicates + one.timing.replays;
    }
  }
  // The sweep only proves something if faults actually fired.
  EXPECT_GT(fault_events, 0u) << algo;
}

template <typename RunFn>
void worker_parity_sweep(const char* algo, RunFn run) {
  for (const std::uint64_t seed : kSeeds) {
    for (const int p : kProcs) {
      const std::string what = std::string(algo) + " p=" + std::to_string(p) +
                               " seed=" + std::to_string(seed) + " workers";
      SCOPED_TRACE(what);
      const LaneRun serial = run(p, seed, 1);
      const LaneRun wide = run(p, seed, 8);
      expect_parity(serial, wide, what);
    }
  }
}

TEST(FaultParity, PrefixBitIdenticalAcrossCarrierCounts) {
  carrier_parity_sweep("prefix", run_prefix);
}

TEST(FaultParity, ListrankBitIdenticalAcrossCarrierCounts) {
  carrier_parity_sweep("listrank", run_listrank);
}

TEST(FaultParity, PrefixBitIdenticalAcrossHostWorkerCounts) {
  worker_parity_sweep("prefix", run_prefix);
}

TEST(FaultParity, ListrankBitIdenticalAcrossHostWorkerCounts) {
  worker_parity_sweep("listrank", run_listrank);
}

TEST(FaultParity, RepeatedRunsAreBitIdentical) {
  const LaneRun a = run_listrank(16, 42, 0);
  const LaneRun b = run_listrank(16, 42, 0);
  expect_parity(a, b, "repeat");
}

TEST(FaultParity, FaultFreeMachineMatchesPreFaultGolden) {
  // A default FaultParams must leave the trace untouched — the golden
  // suite pins absolute numbers; here we pin the equivalence directly.
  auto faulted_off = machine::default_sim(8);
  faulted_off.net.fault = net::FaultParams{};
  rt::Runtime r1(faulted_off, rt::Options{.seed = 1});
  rt::Runtime r2(machine::default_sim(8), rt::Options{.seed = 1});
  const auto program = [](rt::Context& ctx) { ctx.sync(); };
  EXPECT_EQ(r1.run(program), r2.run(program));
}

}  // namespace
}  // namespace qsm
