// Differential "chaos" testing: random bulk-synchronous programs executed
// on the runtime must match a simple sequential reference model of QSM
// memory semantics (gets see pre-phase values; concurrent puts queue and
// resolve in rank-major, enqueue-order; layouts are invisible to
// correctness).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/runtime.hpp"
#include "machine/presets.hpp"
#include "support/rng.hpp"

namespace qsm {
namespace {

struct PutOp {
  std::uint32_t array;
  std::uint64_t idx;
  std::vector<std::int64_t> values;  // count = values.size() (1 = plain put)
};

struct GetOp {
  std::uint32_t array;
  std::uint64_t idx;
  std::uint64_t count;  // 1 = plain get
};

struct ChaosPlan {
  // ops[phase][node]
  std::vector<std::vector<std::vector<PutOp>>> puts;
  std::vector<std::vector<std::vector<GetOp>>> gets;
  std::vector<std::uint64_t> array_sizes;
  int phases{0};
  int p{0};
};

/// Even phases write, odd phases read — same-location read/write in one
/// phase is illegal, and alternating keeps the generator simple while
/// still exercising arbitrary contention.
ChaosPlan make_plan(int p, int phases, std::uint64_t seed) {
  ChaosPlan plan;
  plan.p = p;
  plan.phases = phases;
  plan.array_sizes = {64, 257};
  support::Xoshiro256 rng(seed, 777);
  plan.puts.resize(static_cast<std::size_t>(phases));
  plan.gets.resize(static_cast<std::size_t>(phases));
  for (int ph = 0; ph < phases; ++ph) {
    plan.puts[static_cast<std::size_t>(ph)].resize(
        static_cast<std::size_t>(p));
    plan.gets[static_cast<std::size_t>(ph)].resize(
        static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const std::uint64_t count = 1 + rng.below(12);
      for (std::uint64_t k = 0; k < count; ++k) {
        const auto array = static_cast<std::uint32_t>(rng.below(2));
        const std::uint64_t n_arr = plan.array_sizes[array];
        const std::uint64_t idx = rng.below(n_arr);
        // A third of the ops are ranges of up to 16 words (clipped to the
        // array end); the rest are single-word accesses.
        std::uint64_t span = 1;
        if (rng.below(3) == 0) {
          span = std::min<std::uint64_t>(1 + rng.below(16), n_arr - idx);
        }
        if (ph % 2 == 0) {
          std::vector<std::int64_t> values(span);
          for (auto& v : values) v = static_cast<std::int64_t>(rng() >> 8);
          plan.puts[static_cast<std::size_t>(ph)][static_cast<std::size_t>(r)]
              .push_back({array, idx, std::move(values)});
        } else {
          plan.gets[static_cast<std::size_t>(ph)][static_cast<std::size_t>(r)]
              .push_back({array, idx, span});
        }
      }
    }
  }
  return plan;
}

/// Sequential reference: applies the plan phase by phase and records what
/// every get must observe.
struct Reference {
  std::vector<std::vector<std::int64_t>> arrays;
  // expected[phase][node][op]
  std::vector<std::vector<std::vector<std::int64_t>>> expected;
};

Reference run_reference(const ChaosPlan& plan) {
  Reference ref;
  for (const std::uint64_t n : plan.array_sizes) {
    ref.arrays.emplace_back(n, 0);
  }
  ref.expected.resize(static_cast<std::size_t>(plan.phases));
  for (int ph = 0; ph < plan.phases; ++ph) {
    auto& exp_phase = ref.expected[static_cast<std::size_t>(ph)];
    exp_phase.resize(static_cast<std::size_t>(plan.p));
    // Reads first (pre-phase values), then writes apply rank-major.
    for (int r = 0; r < plan.p; ++r) {
      for (const GetOp& op :
           plan.gets[static_cast<std::size_t>(ph)][static_cast<std::size_t>(r)]) {
        for (std::uint64_t k = 0; k < op.count; ++k) {
          exp_phase[static_cast<std::size_t>(r)].push_back(
              ref.arrays[op.array][op.idx + k]);
        }
      }
    }
    for (int r = 0; r < plan.p; ++r) {
      for (const PutOp& op :
           plan.puts[static_cast<std::size_t>(ph)][static_cast<std::size_t>(r)]) {
        for (std::size_t k = 0; k < op.values.size(); ++k) {
          ref.arrays[op.array][op.idx + k] = op.values[k];
        }
      }
    }
  }
  return ref;
}

/// What one differential run produced, for comparing carrier counts.
struct ChaosRun {
  rt::RunResult timing;
  // observed[node][phase][op]
  std::vector<std::vector<std::vector<std::int64_t>>> observed;
  std::vector<std::vector<std::int64_t>> arrays;
  int carriers{0};
};

/// One full differential run, checked against the reference model; shared
/// by the sweeps below.
ChaosRun run_chaos(int p, int seed, rt::Layout layout) {
  const int phases = 8;
  const auto plan = make_plan(p, phases, static_cast<std::uint64_t>(seed));
  const auto ref = run_reference(plan);

  rt::Runtime runtime(machine::default_sim(p),
                      rt::Options{.seed = static_cast<std::uint64_t>(seed),
                                  .check_rules = true,
                                  .track_kappa = true});
  std::vector<rt::GlobalArray<std::int64_t>> arrays;
  for (const std::uint64_t n : plan.array_sizes) {
    arrays.push_back(runtime.alloc<std::int64_t>(n, layout));
  }

  ChaosRun run;
  auto& observed = run.observed;
  observed.assign(static_cast<std::size_t>(p),
                  std::vector<std::vector<std::int64_t>>(
                      static_cast<std::size_t>(phases)));

  run.timing = runtime.run([&](rt::Context& ctx) {
    const auto me = static_cast<std::size_t>(ctx.rank());
    for (int ph = 0; ph < phases; ++ph) {
      const auto& my_gets =
          plan.gets[static_cast<std::size_t>(ph)][me];
      auto& out = observed[me][static_cast<std::size_t>(ph)];
      std::size_t total_words = 0;
      for (const GetOp& op : my_gets) total_words += op.count;
      out.resize(total_words);
      std::size_t off = 0;
      for (const GetOp& op : my_gets) {
        ctx.get_range(arrays[op.array], op.idx, op.count, out.data() + off);
        off += op.count;
      }
      for (const PutOp& op :
           plan.puts[static_cast<std::size_t>(ph)][me]) {
        ctx.put_range(arrays[op.array], op.idx, op.values.size(),
                      op.values.data());
      }
      ctx.sync();
    }
  });

  // Every observed get matches the reference snapshot.
  for (int ph = 0; ph < phases; ++ph) {
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(observed[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(ph)],
                ref.expected[static_cast<std::size_t>(ph)]
                            [static_cast<std::size_t>(r)])
          << "phase " << ph << " node " << r;
    }
  }
  // Final memory state matches.
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    run.arrays.push_back(runtime.host_read(arrays[a]));
    EXPECT_EQ(run.arrays.back(), ref.arrays[a]) << "array " << a;
  }
  run.carriers = runtime.host_carriers();
  return run;
}

/// Restores the hardware-default host thread budget, however a test ends.
struct BudgetReset {
  ~BudgetReset() { rt::set_host_thread_budget(0); }
};

class ChaosSweep
    : public ::testing::TestWithParam<std::tuple<int, int, rt::Layout>> {};

TEST_P(ChaosSweep, RuntimeMatchesReferenceModel) {
  const auto [p, seed, layout] = GetParam();
  (void)run_chaos(p, seed, layout);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(rt::Layout::Block,
                                         rt::Layout::Hashed,
                                         rt::Layout::Cyclic)));

// The same differential check on one carrier (host thread budget 1: the
// fiber lanes run in rank order on one thread) and on min(p, 16) carriers
// (budget 16): memory semantics, not just timing, must be independent of
// how lanes map onto host threads. A subset of the seed grid keeps the
// second pass cheap.
class ChaosFiberSweep
    : public ::testing::TestWithParam<std::tuple<int, int, rt::Layout>> {};

TEST_P(ChaosFiberSweep, RuntimeMatchesReferenceModelOnFiberLanes) {
  const auto [p, seed, layout] = GetParam();
  BudgetReset reset;
  rt::set_host_thread_budget(1);
  const ChaosRun one = run_chaos(p, seed, layout);
  ASSERT_EQ(one.carriers, 1);
  rt::set_host_thread_budget(16);
  const ChaosRun wide = run_chaos(p, seed, layout);
  ASSERT_EQ(wide.carriers, std::min(p, 16));
  EXPECT_EQ(one.timing, wide.timing);
  EXPECT_EQ(one.observed, wide.observed);
  EXPECT_EQ(one.arrays, wide.arrays);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosFiberSweep,
    ::testing::Combine(::testing::Values(4, 7),
                       ::testing::Values(1, 5),
                       ::testing::Values(rt::Layout::Block,
                                         rt::Layout::Hashed,
                                         rt::Layout::Cyclic)));

}  // namespace
}  // namespace qsm
