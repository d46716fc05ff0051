// Example: degrees of separation in a social graph.
//
// A user-facing workload the paper never ran, written entirely against the
// public API: build a random friendship graph, compute every member's
// distance from one person with the level-synchronous QSM BFS, and report
// both the answer (the degree-of-separation histogram) and how the
// machine's network parameters shaped the run.
//
//   $ ./example_social_bfs [--members 20000] [--friends 8] [--machine t3e]
#include <cstdio>
#include <vector>

#include "algos/bfs.hpp"
#include "core/trace_io.hpp"
#include "machine/presets.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace qsm;

int main(int argc, char** argv) {
  support::ArgParser args("example_social_bfs",
                          "degrees of separation via parallel BFS");
  args.flag_i64("members", 20000, "people in the network");
  args.flag_f64("friends", 8.0, "average friendships per person");
  args.flag_str("machine", "default", "machine preset");
  args.flag_i64("p", 8, "processors");
  args.flag_str("trace-csv", "", "dump the per-phase trace to this file");
  if (!args.parse(argc, argv)) return 0;

  const auto n = static_cast<std::uint64_t>(args.i64("members"));
  auto cfg = machine::preset_by_name(args.str("machine"));
  cfg.p = args.i32("p");

  const auto graph = algos::make_random_graph(n, args.f64("friends"), 42);
  std::printf("social graph: %llu members, %llu friendship links, "
              "machine %s (p=%d)\n\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(graph.edges() / 2),
              cfg.name.c_str(), cfg.p);

  rt::Runtime runtime(cfg);
  auto dist = runtime.alloc<std::int64_t>(n, rt::Layout::Block, "separation");
  const auto out = algos::parallel_bfs(runtime, graph, /*source=*/0, dist);

  // Verify against the sequential reference before reporting anything.
  const auto got = runtime.host_read(dist);
  if (got != algos::sequential_bfs(graph, 0)) {
    std::fprintf(stderr, "parallel BFS disagrees with the reference!\n");
    return 1;
  }

  std::vector<std::uint64_t> histogram(
      static_cast<std::uint64_t>(out.levels), 0);
  std::uint64_t unreachable = 0;
  for (const std::int64_t d : got) {
    if (d < 0) {
      ++unreachable;
    } else {
      histogram[static_cast<std::uint64_t>(d)]++;
    }
  }

  support::TextTable table({"degrees of separation", "members"});
  for (std::uint64_t d = 0; d < histogram.size(); ++d) {
    table.add_row({static_cast<long long>(d),
                   static_cast<long long>(histogram[d])});
  }
  table.add_row({std::string("unreachable"),
                 static_cast<long long>(unreachable)});
  std::printf("%s\n", table.to_string().c_str());

  const auto& clk = cfg.cpu.clock;
  std::printf("BFS ran %d levels in %s simulated cycles (%.2f ms); "
              "%llu phases, %s remote words, comm share %.0f%%\n",
              out.levels, support::with_commas(out.timing.total_cycles).c_str(),
              clk.cycles_to_us(out.timing.total_cycles) / 1000.0,
              static_cast<unsigned long long>(out.timing.phases),
              support::with_commas(
                  static_cast<long long>(out.timing.rw_total)).c_str(),
              100.0 * static_cast<double>(out.timing.comm_cycles) /
                  static_cast<double>(out.timing.total_cycles));

  const std::string& trace_path = args.str("trace-csv");
  if (!trace_path.empty()) {
    rt::write_trace_csv(out.timing, trace_path);
    std::printf("per-phase trace written to %s\n", trace_path.c_str());
  }
  return 0;
}
