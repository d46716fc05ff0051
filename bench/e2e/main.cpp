// End-to-end benchmark driver. Build and run it through bench/e2e/run.sh;
// README.md describes the workloads, the metrics and their bounds.
//
//   run.sh --workload NAME --seed N --seconds S --trace 0|1
//       measures one workload in this process. Prints one line per metric
//       ("workload metric value unit") and, as the last line, a JSON
//       object with the keys correct, attempted, failed and metrics: the
//       end-to-end metrics, or with --trace 1 the per-layer metrics of a
//       traced run (whose spans go to --trace-file as Chrome trace JSON).
//   run.sh --workload all [--repeat K]
//       runs every workload, K times each, in fresh processes, and prints
//       each metric's median and quartiles across the runs.
//
// Exits 1 when any output check fails and 2 on an error.
#include <fcntl.h>
#include <spawn.h>
#include <sched.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/exec.hpp"
#include "spans.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace qsm;
using e2e::Metric;

/// The end-to-end metrics, as BENCHMARK.json lists them; every other
/// metric is per-layer.
const std::vector<std::string> kEndToEnd{"setup_s", "run_s", "phases_per_s",
                                         "peak_rss_mb"};

bool is_end_to_end(const std::string& name) {
  for (const std::string& e : kEndToEnd) {
    if (e == name) return true;
  }
  return false;
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{20};
  bool traced{false};
  std::string trace_file;
  std::string out;
  int repeat{1};
  bool quick{false};
  bool check_golden{false};
};

// ---- Host block ----------------------------------------------------------

std::string fs_type(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// What the numbers depend on besides the code: cores, thread budget,
/// build, compiler, commit, seed, and the store's sync policy and
/// filesystem (fdatasync cost depends on both). Sweep jobs are per
/// workload and added by the caller.
std::map<std::string, std::string> host_block(const Args& a,
                                              const std::string& store_dir) {
  const char* rev = std::getenv("QSM_E2E_GIT_REV");
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  return {
      {"host_cores", std::to_string(host_cores())},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"host_thread_budget", std::to_string(rt::host_thread_budget())},
      {"build_type", QSM_E2E_BUILD_TYPE},
      {"compiler", compiler},
      {"git_rev", rev != nullptr && *rev != '\0' ? rev : "unknown"},
      {"seed", std::to_string(a.seed)},
      {"cache_sync", "data"},
      {"store_fs", fs_type(store_dir)},
  };
}

void print_host(const std::map<std::string, std::string>& host) {
  std::printf("# host");
  for (const auto& [k, v] : host) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
}

void write_host(support::JsonWriter& w,
                const std::map<std::string, std::string>& host) {
  w.key("host").begin_object();
  for (const auto& [k, v] : host) w.key(k).value(v);
  w.end_object();
}

// ---- Files ---------------------------------------------------------------

/// A fresh directory under build-e2e/tmp, removed with everything in it
/// when the run ends.
class ScratchDir {
 public:
  ScratchDir() {
    const std::string root = std::string(QSM_E2E_BINARY_DIR) + "/tmp";
    std::filesystem::create_directories(root);
    std::string tmpl = root + "/run-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("cannot create a directory under " + root);
    }
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

/// The seed-1 trace hash stored under `key` in expected.json.
std::optional<std::uint64_t> golden_hash(const std::string& key) {
  const auto doc = support::parse_json(
      read_file(std::string(QSM_E2E_SOURCE_DIR) + "/expected.json"));
  if (!doc) return std::nullopt;
  const support::JsonValue* hashes = doc->find("hash");
  const support::JsonValue* h = hashes != nullptr ? hashes->find(key) : nullptr;
  if (h == nullptr || !h->is(support::JsonValue::Kind::String)) {
    return std::nullopt;
  }
  return std::strtoull(h->str.c_str(), nullptr, 16);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- Output --------------------------------------------------------------

void write_metric(support::JsonWriter& w, const std::string& name,
                  const Metric& m, bool full) {
  w.key(name).begin_object();
  w.key("value").value(m.value);
  w.key("unit").value(m.unit);
  if (full) {
    w.key("samples").value(static_cast<std::uint64_t>(m.samples));
    w.key("q1").value(m.q1);
    w.key("q3").value(m.q3);
  }
  w.end_object();
}

/// The last line of standard output.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics) {
  support::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics) write_metric(w, name, m, false);
  w.end_object();
  w.end_object();
  return w.str();
}

// ---- One workload in this process ----------------------------------------

int run_one(const Args& a) {
  ScratchDir scratch;
  e2e::RunConfig cfg;
  cfg.workload = a.workload;
  cfg.seed = a.seed;
  cfg.seconds = a.seconds;
  cfg.traced = a.traced;
  cfg.quick = a.quick;
  cfg.store_root = scratch.path();
  const std::string golden_key = (a.quick ? "quick/" : "") + a.workload;
  const bool want_golden = a.seed == 1 || a.check_golden;
  if (want_golden) cfg.golden = golden_hash(golden_key);

  e2e::WorkloadReport report = e2e::run_workload(cfg);
  if (want_golden && !cfg.golden) {
    report.attempted += 1;
    report.failed += 1;
    report.failures.push_back("expected.json has no hash for " + golden_key);
  }
  auto host = host_block(a, scratch.path());
  host["jobs"] = std::to_string(report.jobs);

  if (a.traced) {
    const std::string path =
        a.trace_file.empty() ? std::string(QSM_E2E_BINARY_DIR) + "/trace-" +
                                   a.workload + ".json"
                             : a.trace_file;
    // One trace process per workload, so merged files keep them apart.
    const auto& names = e2e::workload_names();
    const int pid = 1 + static_cast<int>(
                            std::find(names.begin(), names.end(), a.workload) -
                            names.begin());
    if (!e2e::write_chrome_trace(
            path, e2e::Tracer::global().chrome_events(pid, a.workload))) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    std::fprintf(stderr, "trace: %s\n", path.c_str());
  }
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", a.workload.c_str(),
                 f.c_str());
  }

  if (!a.out.empty()) {
    support::JsonWriter w;
    w.begin_object();
    w.key("workload").value(a.workload);
    w.key("quick").value(a.quick);
    w.key("traced").value(a.traced);
    write_host(w, host);
    w.key("correct").value(report.failed == 0);
    w.key("attempted").value(report.attempted);
    w.key("failed").value(report.failed);
    w.key("failures").begin_array();
    for (const std::string& f : report.failures) w.value(f);
    w.end_array();
    w.key("trace_hash").value(hex(report.trace_hash));
    w.key("metrics").begin_object();
    for (const auto& [name, m] : report.metrics) write_metric(w, name, m, true);
    w.end_object();
    w.end_object();
    if (!write_file(a.out, w.str() + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
      return 2;
    }
  }

  std::map<std::string, Metric> shown;
  for (const auto& [name, m] : report.metrics) {
    if (is_end_to_end(name) != a.traced) shown.emplace(name, m);
  }
  print_host(host);
  std::printf("# trace_hash %s\n", hex(report.trace_hash).c_str());
  for (const auto& [name, m] : shown) {
    std::printf("%s %s %s %s\n", a.workload.c_str(), name.c_str(),
                support::json_number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("%s\n", result_line(report.failed == 0, report.attempted,
                                  report.failed, shown)
                          .c_str());
  return report.failed == 0 ? 0 : 1;
}

// ---- Several workloads or repeats, each in a fresh process ---------------

/// Runs this binary on one workload with its output JSON going to `out`;
/// returns the exit status (-1 when it did not exit normally).
int spawn_child(const Args& a, const std::string& workload,
                std::uint64_t seed, const std::string& out,
                const std::string& trace_file) {
  std::vector<std::string> argv{
      "qsm_e2e",         "--workload", workload,
      "--seed",          std::to_string(seed),
      "--seconds",       support::json_number(a.seconds),
      "--trace",         a.traced ? "1" : "0",
      "--quick",         a.quick ? "1" : "0",
      "--check-golden",  a.check_golden ? "1" : "0",
      "--out",           out};
  if (!trace_file.empty()) {
    argv.push_back("--trace-file");
    argv.push_back(trace_file);
  }
  std::vector<char*> cargv;
  for (std::string& s : argv) cargv.push_back(s.data());
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("posix_spawn failed");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Appends the events of one child's Chrome trace file to `events`.
void take_events(const std::string& path, std::vector<std::string>& events) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // {"traceEvents":[
  while (std::getline(in, line)) {
    if (line.rfind("]", 0) == 0) break;
    if (!line.empty() && line.back() == ',') line.pop_back();
    events.push_back(line);
  }
}

struct Series {
  std::string unit;
  std::vector<double> values;  ///< one per run
};

int run_many(const Args& a) {
  ScratchDir scratch;
  const std::vector<std::string> workloads =
      a.workload == "all" ? e2e::workload_names()
                          : std::vector<std::string>{a.workload};
  std::map<std::string, std::map<std::string, Series>> series;
  std::map<std::string, std::string> jobs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> events;

  for (int r = 0; r < a.repeat; ++r) {
    for (const std::string& w : workloads) {
      const std::uint64_t seed = a.seed + static_cast<std::uint64_t>(r);
      const std::string stem = scratch.path() + "/" + w + "-" +
                               std::to_string(r);
      const std::string trace =
          a.traced && r == 0 && !a.trace_file.empty() ? stem + ".trace.json"
                                                      : "";
      std::fprintf(stderr, "e2e: %s seed %llu\n", w.c_str(),
                   static_cast<unsigned long long>(seed));
      const int status = spawn_child(a, w, seed, stem + ".json", trace);
      const auto doc = support::parse_json(read_file(stem + ".json"));
      if (status < 0 || status > 1 || !doc) {
        std::fprintf(stderr, "e2e: %s seed %llu did not finish (status %d)\n",
                     w.c_str(), static_cast<unsigned long long>(seed), status);
        attempted += 1;
        failed += 1;
        continue;
      }
      attempted += doc->find("attempted")->as_u64();
      failed += doc->find("failed")->as_u64();
      if (const auto* host = doc->find("host")) {
        jobs[w] = host->find("jobs")->str;
      }
      for (const auto& [name, m] : doc->find("metrics")->obj) {
        if (is_end_to_end(name) == a.traced) continue;
        Series& s = series[w][name];
        s.unit = m.find("unit")->str;
        s.values.push_back(m.find("value")->as_double());
      }
      if (!trace.empty()) take_events(trace, events);
    }
  }

  const auto host = host_block(a, scratch.path());
  print_host(host);
  std::map<std::string, Metric> last;
  support::JsonWriter w;
  w.begin_object();
  w.key("runs").value(a.repeat);
  w.key("seeds").value(std::to_string(a.seed) + ".." +
                       std::to_string(a.seed + static_cast<std::uint64_t>(
                                                   a.repeat - 1)));
  w.key("quick").value(a.quick);
  w.key("traced").value(a.traced);
  write_host(w, host);
  w.key("workloads").begin_object();
  for (const auto& [wl, metrics] : series) {
    w.key(wl).begin_object();
    w.key("jobs").value(jobs[wl]);
    w.key("metrics").begin_object();
    for (const auto& [name, s] : metrics) {
      const double med = e2e::median(s.values);
      const auto [q1, q3] = e2e::quartiles(s.values);
      const double spread = med != 0 ? (q3 - q1) / med : 0;
      if (a.repeat > 1) {
        std::printf("%s %s %s %s q1=%s q3=%s spread=%.4f\n", wl.c_str(),
                    name.c_str(), support::json_number(med).c_str(),
                    s.unit.c_str(), support::json_number(q1).c_str(),
                    support::json_number(q3).c_str(), spread);
      } else {
        std::printf("%s %s %s %s\n", wl.c_str(), name.c_str(),
                    support::json_number(med).c_str(), s.unit.c_str());
      }
      last[wl + "/" + name] = Metric{s.unit, med, s.values.size(), q1, q3};
      w.key(name).begin_object();
      w.key("unit").value(s.unit);
      w.key("median").value(med);
      w.key("q1").value(q1);
      w.key("q3").value(q3);
      w.key("spread").value(spread);
      w.key("values").begin_array();
      for (const double v : s.values) w.value(v);
      w.end_array();
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();

  if (!a.out.empty() && !write_file(a.out, w.str() + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
    return 2;
  }
  if (!events.empty() && !e2e::write_chrome_trace(a.trace_file, events)) {
    std::fprintf(stderr, "cannot write %s\n", a.trace_file.c_str());
    return 2;
  }
  std::printf("%s\n", result_line(failed == 0, attempted, failed, last).c_str());
  return failed == 0 ? 0 : 1;
}

int run(int argc, const char* const* argv) {
  support::ArgParser args(
      "run.sh", "end-to-end benchmark: four workloads through algos, core, "
                "harness and the durable store");
  args.flag_str("workload", "all",
                "rank-p1024, sort-p256, fig-p16, sweep-small, or all");
  args.flag_i64("seed", 1, "input seed (goldens exist for seed 1)");
  args.flag_f64("seconds", 20, "measured wall time per workload");
  args.flag_bool("trace", false,
                 "traced run: report per-layer metrics and record spans");
  args.flag_str("trace-file", "",
                "Chrome trace output of a traced run (default "
                "build-e2e/trace-<workload>.json)");
  args.flag_str("out", "", "also write the full results as JSON here");
  args.flag_i64("repeat", 1,
                "run everything this many times in fresh processes, "
                "seeds seed..seed+K-1, and report quartiles across runs");
  args.flag_bool("quick", false, "tiny sizes (smoke test)");
  args.flag_bool("check-golden", false,
                 "compare with the seed-1 golden whatever the seed");
  if (!args.parse(argc, argv)) return 0;

  Args a;
  a.workload = args.str("workload");
  a.seed = static_cast<std::uint64_t>(args.i64("seed"));
  a.seconds = args.f64("seconds");
  a.traced = args.boolean("trace");
  a.trace_file = args.str("trace-file");
  a.out = args.str("out");
  a.repeat = static_cast<int>(args.i64("repeat"));
  a.quick = args.boolean("quick");
  a.check_golden = args.boolean("check-golden");
  if (a.repeat < 1 || a.seconds <= 0) {
    throw std::invalid_argument("--repeat and --seconds must be positive");
  }
  if (a.workload != "all") {
    bool known = false;
    for (const std::string& w : e2e::workload_names()) known |= w == a.workload;
    if (!known) throw std::invalid_argument("unknown workload " + a.workload);
  }
  return a.workload == "all" || a.repeat > 1 ? run_many(a) : run_one(a);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: error: %s\n", e.what());
    return 2;
  }
}
