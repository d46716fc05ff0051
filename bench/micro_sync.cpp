// Host-side sync() throughput microbenchmark.
//
// Not a paper figure: this measures the *simulator's own* speed, the
// words-per-wall-clock-second the phase pipeline pushes through
// classify / move / price for a big all-remote exchange. It is the number
// that bounds how far the n / l / o sweeps can be pushed, and the
// regression guard for the Store / PhasePipeline / Executor layering
// (roughly 2.5x the monolithic runtime's throughput on a single core:
// 55.6 -> ~140 Mwords/s on the default 16-node 1M-word exchange).
//
// Simulated timing is printed once and is identical across reps and
// worker counts by the pipeline's determinism contract; only the host
// seconds vary.
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/runtime.hpp"
#include "machine/presets.hpp"
#include "support/cli.hpp"

namespace {

using namespace qsm;

int run(int argc, const char* const* argv) {
  support::ArgParser args("bench_micro_sync",
                          "host-side sync() throughput microbenchmark");
  args.flag_i64("procs", 16, "simulated processors");
  args.flag_i64("words", 1 << 20, "words exchanged per phase (all nodes)");
  args.flag_i64("reps", 5, "timed repetitions");
  args.flag_i64("workers", 0,
                "phase worker threads (0 = host default, 1 = serial)");
  args.flag_str("layout", "cyclic", "array layout: block|cyclic|hashed");
  if (!args.parse(argc, argv)) return 0;

  const int p = args.i32("procs");
  const auto n = static_cast<std::uint64_t>(args.i64("words"));
  const int reps = args.i32("reps");
  const std::string layout_name = args.str("layout");
  rt::Layout layout = rt::Layout::Cyclic;
  if (layout_name == "block") {
    layout = rt::Layout::Block;
  } else if (layout_name == "hashed") {
    layout = rt::Layout::Hashed;
  } else if (layout_name != "cyclic") {
    std::fprintf(stderr, "unknown --layout '%s' (want block|cyclic|hashed)\n",
                 layout_name.c_str());
    return 2;
  }

  rt::Runtime runtime(
      machine::default_sim(p),
      rt::Options{.host_workers = args.i32("workers")});
  auto a = runtime.alloc<std::int64_t>(n, layout);
  const std::uint64_t per = n / static_cast<std::uint64_t>(p);

  // Each phase moves `n` words: every node puts its slice, syncs, then
  // gets its neighbour's slice (all-remote under cyclic layout except the
  // 1/p locally-owned fraction) and syncs again -> 2n words per run().
  const auto exchange = [&](rt::Context& ctx) {
    const auto rank = static_cast<std::uint64_t>(ctx.rank());
    std::vector<std::int64_t> out(per, static_cast<std::int64_t>(rank));
    ctx.put_range(a, rank * per, per, out.data());
    ctx.sync();
    std::vector<std::int64_t> in(per);
    ctx.get_range(a, ((rank + 1) % static_cast<std::uint64_t>(p)) * per, per,
                  in.data());
    ctx.sync();
  };

  std::printf(
      "== micro_sync: p=%d, %llu words/phase, layout %s, %d phase workers "
      "==\n\n",
      p, static_cast<unsigned long long>(n), layout_name.c_str(),
      runtime.host_phase_workers());

  const auto warm = runtime.run(exchange);  // warm lanes, pools, buffers
  std::printf("simulated: total %lld cycles, comm %lld cycles, rw_total "
              "%llu words\n",
              static_cast<long long>(warm.total_cycles),
              static_cast<long long>(warm.comm_cycles),
              static_cast<unsigned long long>(warm.rw_total));
  const std::uint64_t threads_after_warmup = runtime.host_threads_created();

  double best_wps = 0.0;
  double sum_wps = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = runtime.run(exchange);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double wps = 2.0 * static_cast<double>(n) / secs;
    best_wps = wps > best_wps ? wps : best_wps;
    sum_wps += wps;
    std::printf("rep %d: %.4f s host, %.2f Mwords/s (simulated total %lld "
                "unchanged: %s)\n",
                r, secs, wps / 1e6, static_cast<long long>(res.total_cycles),
                res.total_cycles == warm.total_cycles ? "yes" : "NO");
    if (res.total_cycles != warm.total_cycles) return 1;
  }
  std::printf("\nhost throughput: best %.2f Mwords/s, mean %.2f Mwords/s\n",
              best_wps / 1e6, sum_wps / (1e6 * reps));

  const std::uint64_t threads_now = runtime.host_threads_created();
  std::printf("executor reuse: %llu OS threads after warmup, %llu after %d "
              "more runs (%s)\n",
              static_cast<unsigned long long>(threads_after_warmup),
              static_cast<unsigned long long>(threads_now), reps,
              threads_now == threads_after_warmup ? "reused" : "RESPAWNED");
  return threads_now == threads_after_warmup ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
