// Golden determinism fixtures.
//
// Three pinned-seed algorithm runs whose full timing traces are frozen as
// constants. These were captured from the pre-refactor monolithic runtime
// and must never drift: any change to classification, pricing, write
// resolution, RNG salting, or phase accounting shows up here as a concrete
// number diff, not a vague "something changed". Host parallelism is
// explicitly exercised (host_workers forced past the worker-spread
// threshold) to pin the contract that it cannot perturb simulated timing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algos/listrank.hpp"
#include "algos/prefix.hpp"
#include "algos/samplesort.hpp"
#include "machine/presets.hpp"
#include "support/rng.hpp"

namespace qsm {
namespace {

struct Golden {
  rt::cycles_t total_cycles;
  rt::cycles_t comm_cycles;
  rt::cycles_t barrier_cycles;
  rt::cycles_t compute_cycles;
  std::uint64_t phases;
  std::uint64_t rw_total;
  std::uint64_t kappa_max;
  std::uint64_t messages;
  std::int64_t wire_bytes;
  std::uint64_t trace_hash;  ///< FNV-1a over every PhaseStats field, in order
};

// Captured on the seed implementation: p=8 default_sim, Options{seed=42,
// check_rules=true, track_kappa=true}, inputs from Xoshiro256 input seeds
// 3 / 7 / 5 (see fixtures below).
constexpr Golden kPrefixGolden = {54462,  36674, 15552, 17788, 1, 56,
                                 1,      112,   11648, 0x62a55fca40e22212ULL};
constexpr Golden kSamplesortGolden = {2124986, 1040640, 72576,
                                     1084346, 5,       23842,
                                     1,       511,     713136,
                                     0x3f869bc665395996ULL};
constexpr Golden kListrankGolden = {4337547, 3726591, 940230,
                                   560104,  64,      60392,
                                   1,       6952,    2053632,
                                   0x4c3997e97486445dULL};

/// FNV-1a over the whole per-phase trace; catches drift that the run-level
/// aggregates could mask (e.g. cycles moving between phases).
std::uint64_t trace_hash(const rt::RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& ps : r.trace) {
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
  }
  return h;
}

void expect_golden(const rt::RunResult& r, const Golden& g) {
  EXPECT_EQ(r.total_cycles, g.total_cycles);
  EXPECT_EQ(r.comm_cycles, g.comm_cycles);
  EXPECT_EQ(r.barrier_cycles, g.barrier_cycles);
  EXPECT_EQ(r.compute_cycles, g.compute_cycles);
  EXPECT_EQ(r.phases, g.phases);
  EXPECT_EQ(r.rw_total, g.rw_total);
  EXPECT_EQ(r.kappa_max, g.kappa_max);
  EXPECT_EQ(r.messages, g.messages);
  EXPECT_EQ(r.wire_bytes, g.wire_bytes);
  EXPECT_EQ(trace_hash(r), g.trace_hash);
}

std::vector<std::int64_t> random_values(std::uint64_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng() >> 1);
  return v;
}

rt::Options golden_options(int host_workers) {
  return rt::Options{.seed = 42,
                     .check_rules = true,
                     .track_kappa = true,
                     .host_workers = host_workers};
}

rt::RunResult run_prefix(int host_workers) {
  rt::Runtime runtime(machine::default_sim(8), golden_options(host_workers));
  auto data = runtime.alloc<std::int64_t>(10000);
  runtime.host_fill(data, random_values(10000, 3));
  return algos::parallel_prefix(runtime, data).timing;
}

rt::RunResult run_samplesort(int host_workers) {
  rt::Runtime runtime(machine::default_sim(8), golden_options(host_workers));
  auto data = runtime.alloc<std::int64_t>(20000);
  runtime.host_fill(data, random_values(20000, 7));
  return algos::sample_sort(runtime, data).timing;
}

rt::RunResult run_listrank(int host_workers) {
  const auto list = algos::make_random_list(10000, 5);
  rt::Runtime runtime(machine::default_sim(8), golden_options(host_workers));
  auto ranks = runtime.alloc<std::int64_t>(10000);
  return algos::list_rank(runtime, list, ranks).timing;
}

TEST(GoldenDeterminism, PrefixMatchesPinnedFixture) {
  expect_golden(run_prefix(1), kPrefixGolden);
}

TEST(GoldenDeterminism, SamplesortMatchesPinnedFixture) {
  expect_golden(run_samplesort(1), kSamplesortGolden);
}

TEST(GoldenDeterminism, ListrankMatchesPinnedFixture) {
  expect_golden(run_listrank(1), kListrankGolden);
}

// The same fixtures with parallel phase processing forced on (the worker
// count is a host-throughput knob only). Bit-identical traces, not just
// matching aggregates.
TEST(GoldenDeterminism, PrefixIdenticalUnderHostParallelism) {
  expect_golden(run_prefix(4), kPrefixGolden);
}

TEST(GoldenDeterminism, SamplesortIdenticalUnderHostParallelism) {
  expect_golden(run_samplesort(4), kSamplesortGolden);
}

TEST(GoldenDeterminism, ListrankIdenticalUnderHostParallelism) {
  expect_golden(run_listrank(4), kListrankGolden);
}

// The same fixtures on one carrier: the host thread budget is 1, so the
// eight fiber lanes run in rank order on one thread instead of spreading
// over the default carriers. The carrier count is a host-throughput knob
// exactly like the worker count: bit-identical traces or nothing.
struct OneCarrier {
  OneCarrier() { rt::set_host_thread_budget(1); }
  ~OneCarrier() { rt::set_host_thread_budget(0); }
};

TEST(GoldenDeterminism, PrefixIdenticalOnFiberLanes) {
  OneCarrier one;
  expect_golden(run_prefix(1), kPrefixGolden);
}

TEST(GoldenDeterminism, SamplesortIdenticalOnFiberLanes) {
  OneCarrier one;
  expect_golden(run_samplesort(1), kSamplesortGolden);
}

TEST(GoldenDeterminism, ListrankIdenticalOnFiberLanes) {
  OneCarrier one;
  expect_golden(run_listrank(4), kListrankGolden);
}

// Re-running a program on one long-lived runtime (persistent executor,
// recycled array slots) must reproduce the same trace every time.
TEST(GoldenDeterminism, RepeatedRunsOnOneRuntimeAreBitIdentical) {
  rt::Runtime runtime(machine::default_sim(8), golden_options(0));
  std::uint64_t first_hash = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto data = runtime.alloc<std::int64_t>(10000);
    runtime.host_fill(data, random_values(10000, 3));
    const auto r = algos::parallel_prefix(runtime, data).timing;
    runtime.free(data);
    const std::uint64_t h = trace_hash(r);
    if (rep == 0) {
      first_hash = h;
      EXPECT_EQ(r.total_cycles, kPrefixGolden.total_cycles);
    } else {
      EXPECT_EQ(h, first_hash) << "rep " << rep << " diverged";
    }
  }
}

}  // namespace
}  // namespace qsm
