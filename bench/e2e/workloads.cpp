#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algos/listrank.hpp"
#include "algos/prefix.hpp"
#include "algos/samplesort.hpp"
#include "core/runtime.hpp"
#include "harness/cache.hpp"
#include "harness/point.hpp"
#include "harness/sweep.hpp"
#include "machine/presets.hpp"
#include "spans.hpp"
#include "support/durable/segment_store.hpp"
#include "support/rng.hpp"

namespace qsm::e2e {

namespace {

// ---- Sizes ---------------------------------------------------------------
// README.md says why each workload has the size it has. --quick swaps in
// the tiny set, which exercises the same code paths in a few seconds.

struct Sizes {
  int rank_p;
  std::uint64_t rank_n_per_node;
  int sort_p;
  std::uint64_t sort_n;
  int fig_p;
  std::vector<std::uint64_t> fig_n;
  int fig_reps;
  int sweep_points;
  std::uint64_t sweep_n;
  /// Warm passes after each cold pass.
  int warm_passes;
  /// Measured iterations that run however long they take.
  int min_iterations;
};

const Sizes kFull{.rank_p = 1024,
                  .rank_n_per_node = 16,
                  .sort_p = 256,
                  .sort_n = std::uint64_t{1} << 21,
                  .fig_p = 16,
                  .fig_n = {std::uint64_t{1} << 14, std::uint64_t{1} << 16,
                            std::uint64_t{1} << 18, std::uint64_t{1} << 20},
                  .fig_reps = 3,
                  .sweep_points = 6000,
                  .sweep_n = 4096,
                  .warm_passes = 10,
                  .min_iterations = 3};
const Sizes kQuick{.rank_p = 64,
                   .rank_n_per_node = 16,
                   .sort_p = 16,
                   .sort_n = std::uint64_t{1} << 14,
                   .fig_p = 16,
                   .fig_n = {std::uint64_t{1} << 12, std::uint64_t{1} << 13},
                   .fig_reps = 1,
                   .sweep_points = 60,
                   .sweep_n = 4096,
                   .warm_passes = 2,
                   .min_iterations = 2};
constexpr double kQuickSeconds = 0.3;
/// Concurrent points in the grid workloads: half the 4-core host the
/// bounds were calibrated on, so the phase pools keep a core each.
constexpr int kGridJobs = 2;
constexpr int kSweepProcs[] = {4, 8, 16};
constexpr int kSyncFloorRuns = 20;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
constexpr std::size_t kMaxLoggedFailures = 10;

// ---- Points --------------------------------------------------------------

enum class Algo { Prefix, Sort, Rank };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::Prefix: return "prefix";
    case Algo::Sort: return "samplesort";
    case Algo::Rank: return "listrank";
  }
  return "?";
}

struct Point {
  Algo algo{Algo::Prefix};
  int p{0};
  std::uint64_t n{0};
  std::uint64_t seed{0};  ///< input seed and Runtime seed
};

struct Spec {
  std::vector<Point> points;
  /// One point whose Runtime is made ready during setup, so run_all times
  /// the algorithm alone; otherwise each closure builds its own Runtime.
  bool prepared{false};
  int jobs{1};
  std::map<int, machine::MachineConfig> machines;  ///< by p
};

Spec make_spec(const std::string& name, std::uint64_t seed, const Sizes& z) {
  Spec spec;
  const auto add = [&](Algo algo, int p, std::uint64_t n) {
    support::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + spec.points.size());
    spec.points.push_back(Point{algo, p, n, mix.next()});
    spec.machines.try_emplace(p, machine::default_sim(p));
  };
  if (name == "rank-p1024") {
    spec.prepared = true;
    add(Algo::Rank, z.rank_p,
        static_cast<std::uint64_t>(z.rank_p) * z.rank_n_per_node);
  } else if (name == "sort-p256") {
    spec.prepared = true;
    add(Algo::Sort, z.sort_p, z.sort_n);
  } else if (name == "fig-p16") {
    spec.jobs = kGridJobs;
    for (const Algo algo : {Algo::Prefix, Algo::Sort, Algo::Rank}) {
      for (const std::uint64_t n : z.fig_n) {
        for (int rep = 0; rep < z.fig_reps; ++rep) add(algo, z.fig_p, n);
      }
    }
  } else if (name == "sweep-small") {
    spec.jobs = kGridJobs;
    for (int i = 0; i < z.sweep_points; ++i) {
      add(i % 2 == 0 ? Algo::Prefix : Algo::Sort, kSweepProcs[(i / 2) % 3],
          z.sweep_n);
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

std::vector<std::int64_t> make_values(const Point& pt) {
  support::Xoshiro256 rng(pt.seed);
  std::vector<std::int64_t> v(pt.n);
  // Prefix inputs stay small so no sum overflows; sort keys use 63 bits.
  for (auto& x : v) {
    x = pt.algo == Algo::Prefix ? static_cast<std::int64_t>(rng.below(1000))
                                : static_cast<std::int64_t>(rng() >> 1);
  }
  return v;
}

// ---- Hashes --------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// FNV-1a over the eight little-endian bytes of v.
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

template <typename T>
std::uint64_t digest_words(const std::vector<T>& words) {
  std::uint64_t h = kFnvOffset;
  for (const T w : words) fnv_mix(h, static_cast<std::uint64_t>(w));
  return h;
}

/// Digest of the output the sequential reference produces for `pt`.
std::uint64_t reference_digest(const Point& pt) {
  switch (pt.algo) {
    case Algo::Prefix:
      return digest_words(algos::sequential_prefix(make_values(pt)));
    case Algo::Sort: {
      auto v = make_values(pt);
      std::sort(v.begin(), v.end());
      return digest_words(v);
    }
    case Algo::Rank:
      return digest_words(algos::sequential_list_rank(
          algos::make_random_list(pt.n, pt.seed)));
  }
  return 0;
}

/// FNV-1a over every simulated number of every result, in submission
/// order: the RunResult totals, then each PhaseStats field in declaration
/// order. This is what the seed-1 goldens pin.
std::uint64_t trace_hash(const std::vector<harness::PointResult>& results) {
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](auto v) { fnv_mix(h, static_cast<std::uint64_t>(v)); };
  for (const harness::PointResult& r : results) {
    const rt::RunResult& t = r.timing;
    for (const auto v : {t.total_cycles, t.comm_cycles, t.barrier_cycles,
                         t.compute_cycles, t.wire_bytes}) {
      mix(v);
    }
    for (const auto v : {t.phases, t.rw_total, t.kappa_max, t.messages,
                         t.retries, t.drops, t.duplicates, t.replays}) {
      mix(v);
    }
    for (const rt::PhaseStats& ps : t.trace) {
      mix(ps.arrival_spread);
      mix(ps.exchange_cycles);
      mix(ps.barrier_cycles);
      mix(ps.m_op_max);
      mix(ps.m_rw_max);
      mix(ps.max_put_words);
      mix(ps.max_get_words);
      mix(ps.rw_total);
      mix(ps.local_words);
      mix(ps.kappa);
      mix(ps.messages);
      mix(ps.wire_bytes);
      mix(ps.retries);
      mix(ps.drops);
      mix(ps.duplicates);
      mix(ps.replays);
      mix(ps.p_effective);
    }
  }
  return h;
}

// ---- One Runtime ---------------------------------------------------------

struct MemoCounts {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t clears{0};
  std::uint64_t oversize{0};

  MemoCounts& operator+=(const MemoCounts& o) {
    hits += o.hits;
    misses += o.misses;
    clears += o.clears;
    oversize += o.oversize;
    return *this;
  }
};

/// Reads the memo counters by field name, whatever type the comm layer
/// returns them in.
template <typename Stats>
MemoCounts memo_counts(const Stats& s) {
  return MemoCounts{s.hits, s.misses, s.clears, s.oversize};
}

MemoCounts since(const MemoCounts& now, const MemoCounts& base) {
  return MemoCounts{now.hits - base.hits, now.misses - base.misses,
                    now.clears - base.clears, now.oversize - base.oversize};
}

/// Host seconds and counters of one point in one iteration.
struct PointRecord {
  double input_s{0};
  double ctor_s{0};
  double lane_spawn_s{0};
  double fill_s{0};
  double call_s{0};
  double verify_s{0};
  double dtor_s{0};
  double closure_s{0};
  std::uint64_t digest{0};
  MemoCounts plan;
  MemoCounts xfer;
  std::uint64_t threads_created{0};
  int phase_workers{0};
};

/// One point's Runtime, timed stage by stage. The constructor makes it
/// ready to run: input generation, the Runtime constructor, one empty run
/// (which spawns the program lanes), alloc and host_fill.
class Sim {
 public:
  Sim(const Point& pt, const machine::MachineConfig& m, PointRecord& rec)
      : pt_(pt), rec_(rec) {
    std::vector<std::int64_t> values;
    {
      Stage s("algos.input");
      if (pt.algo == Algo::Rank) {
        list_ = algos::make_random_list(pt.n, pt.seed);
      } else {
        values = make_values(pt);
      }
      rec.input_s = s.stop();
    }
    {
      Stage s("core.ctor");
      runtime_ = std::make_unique<rt::Runtime>(m, rt::Options{.seed = pt.seed});
      rec.ctor_s = s.stop();
    }
    {
      Stage s("core.lane_spawn");
      (void)runtime_->run([](rt::Context&) {});
      rec.lane_spawn_s = s.stop();
    }
    {
      Stage s("core.fill");
      data_ = runtime_->alloc<std::int64_t>(pt.n);
      if (pt.algo != Algo::Rank) runtime_->host_fill(data_, values);
      rec.fill_s = s.stop();
    }
  }

  rt::RunResult call() {
    const MemoCounts plan0 = memo_counts(runtime_->comm().plan_cache_stats());
    const MemoCounts xfer0 = memo_counts(runtime_->comm().xfer_cache_stats());
    rt::RunResult r;
    {
      Stage s("algos.call");
      switch (pt_.algo) {
        case Algo::Prefix:
          r = algos::parallel_prefix(*runtime_, data_).timing;
          break;
        case Algo::Sort:
          r = algos::sample_sort(*runtime_, data_).timing;
          break;
        case Algo::Rank:
          r = algos::list_rank(*runtime_, list_, data_).timing;
          break;
      }
      rec_.call_s = s.stop();
    }
    rec_.plan =
        since(memo_counts(runtime_->comm().plan_cache_stats()), plan0);
    rec_.xfer =
        since(memo_counts(runtime_->comm().xfer_cache_stats()), xfer0);
    rec_.threads_created = runtime_->host_threads_created();
    rec_.phase_workers = runtime_->host_phase_workers();
    return r;
  }

  /// Hashes the output; the caller compares it with the reference digest.
  void digest() {
    Stage s("algos.verify");
    rec_.digest = digest_words(runtime_->host_read(data_));
    rec_.verify_s = s.stop();
  }

  void destroy() {
    Stage s("core.dtor");
    runtime_.reset();
    rec_.dtor_s = s.stop();
  }

 private:
  const Point& pt_;
  PointRecord& rec_;
  algos::ListProblem list_;
  std::unique_ptr<rt::Runtime> runtime_;
  rt::GlobalArray<std::int64_t> data_;
};

// ---- Measuring -----------------------------------------------------------

/// Scalars of one iteration: a cold pass into an empty store, then the
/// warm passes over it.
struct Iteration {
  bool traced{false};
  double setup_s{0};
  double keys_s{0};
  double submit_s{0};
  double run_s{0};  ///< cold run_all
  double compute_s{0};
  double warm_s{0};  ///< median warm pass
  double scan_s{0};
  // Sums over the iteration's points.
  double closure_s{0};
  double input_s{0};
  double ctor_s{0};
  double lane_spawn_s{0};
  double fill_s{0};
  double call_s{0};
  double verify_s{0};
  double dtor_s{0};
  std::uint64_t phases{0};
  std::uint64_t rw_words{0};
  std::uint64_t local_words{0};
  std::uint64_t messages{0};
  std::int64_t wire_bytes{0};
  MemoCounts plan;
  MemoCounts xfer;
  // Medians over the iteration's Runtimes.
  double threads_created{0};
  double phase_workers{0};
  // Runner and store counters.
  std::size_t points{0};
  std::size_t computed{0};
  std::size_t cached{0};
  std::size_t failed{0};
  support::durable::ScanReport scan;
};

long max_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

class Measure {
 public:
  explicit Measure(const RunConfig& cfg)
      : cfg_(cfg),
        sizes_(cfg.quick ? kQuick : kFull),
        spec_(make_spec(cfg.workload, cfg.seed, sizes_)),
        records_(spec_.points.size()) {
    report_.jobs = spec_.jobs;
  }

  WorkloadReport run();

 private:
  struct Ready {
    std::unique_ptr<Sim> sim;  ///< prepared workloads only
    std::unique_ptr<harness::SweepRunner> runner;
  };

  const machine::MachineConfig& machine_for(const Point& pt) const {
    return spec_.machines.at(pt.p);
  }
  harness::RunnerOptions runner_options(const std::string& dir) const;
  Ready setup(const std::string& dir, Iteration& it);
  std::function<harness::PointResult()> closure(std::size_t i, Sim* prepared);
  Iteration iterate(int index, bool traced);
  double warm_pass(const std::string& dir,
                   const std::vector<harness::PointResult>& cold,
                   Iteration& it);
  void check_outputs(const std::vector<harness::PointResult>& results,
                     int index);
  static constexpr std::size_t kNoPoint = SIZE_MAX;
  /// Counts one output check; the message is built only on failure.
  void check(bool ok, const char* what, std::size_t point = kNoPoint);
  double sync_floor() const;
  void put(const std::string& name, const std::string& unit,
           const std::vector<double>& samples, double value);
  void put(const std::string& name, const std::string& unit,
           const std::vector<double>& samples) {
    put(name, unit, samples, median(samples));
  }

  RunConfig cfg_;
  Sizes sizes_;
  Spec spec_;
  std::vector<PointRecord> records_;  ///< current iteration, by point
  std::vector<harness::PointKey> keys_;
  std::vector<std::uint64_t> reference_;  ///< output digest, by point
  std::vector<rt::RunResult> first_;      ///< warm-up timings, by point
  std::vector<double> point_ms_;          ///< closure times, measured only
  std::uint32_t run_all_span_{0};
  WorkloadReport report_;
};

harness::RunnerOptions Measure::runner_options(const std::string& dir) const {
  harness::RunnerOptions opts;
  opts.workload = "e2e-" + cfg_.workload;
  opts.jobs = spec_.jobs;
  opts.cache_dir = dir;
  return opts;
}

Measure::Ready Measure::setup(const std::string& dir, Iteration& it) {
  Ready ready;
  Stage setup("e2e.setup");
  if (spec_.prepared) {
    const Point& pt = spec_.points.front();
    ready.sim = std::make_unique<Sim>(pt, machine_for(pt), records_.front());
  }
  {
    Stage s("harness.keys");
    keys_.clear();
    keys_.reserve(spec_.points.size());
    for (std::size_t i = 0; i < spec_.points.size(); ++i) {
      const Point& pt = spec_.points[i];
      harness::KeyBuilder key("e2e");
      key.add("algo", algo_name(pt.algo));
      key.add("machine", machine_for(pt));
      key.add("n", pt.n);
      key.add("seed", pt.seed);
      key.add("point", i);
      keys_.push_back(key.build());
    }
    it.keys_s = s.stop();
  }
  {
    Stage s("harness.submit");
    ready.runner = std::make_unique<harness::SweepRunner>(runner_options(dir));
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      ready.runner->submit(keys_[i], closure(i, ready.sim.get()));
    }
    it.submit_s = s.stop();
  }
  it.setup_s = setup.stop();
  return ready;
}

std::function<harness::PointResult()> Measure::closure(std::size_t i,
                                                       Sim* prepared) {
  return [this, i, prepared] {
    // Closures run on the sweep's job threads; the run_all span that
    // caused them is open on the main thread.
    Stage c("harness.closure", run_all_span_);
    harness::PointResult out;
    if (prepared != nullptr) {
      out.timing = prepared->call();
    } else {
      const Point& pt = spec_.points[i];
      Sim sim(pt, machine_for(pt), records_[i]);
      out.timing = sim.call();
      sim.digest();
      sim.destroy();
    }
    records_[i].closure_s = c.stop();
    return out;
  };
}

Iteration Measure::iterate(int index, bool traced) {
  Tracer::global().set_enabled(traced);
  Tracer::global().set_iteration(static_cast<std::uint32_t>(index));
  Iteration it;
  it.traced = traced;
  Stage span("e2e.iteration");
  const std::string dir = cfg_.store_root + "/it-" + std::to_string(index);
  std::fill(records_.begin(), records_.end(), PointRecord{});

  Ready ready = setup(dir, it);
  std::vector<harness::PointResult> results;
  {
    Stage s("harness.run_all");
    run_all_span_ = s.id();
    results = ready.runner->run_all();
    it.run_s = s.stop();
  }
  const harness::RunnerStats& st = ready.runner->stats();
  it.compute_s = st.compute_seconds;
  it.points = st.points;
  it.computed = st.computed;
  it.failed = st.failed;
  check(st.failed == 0 && st.computed == st.points,
        "the cold pass did not compute every point");
  ready.runner.reset();
  if (ready.sim) {
    ready.sim->digest();
    ready.sim->destroy();
  }

  if (cfg_.traced) {
    Stage s("durable.scan");
    support::durable::SegmentStore store(
        dir + "/" + harness::cache_file_stem("e2e-" + cfg_.workload) +
            ".qstore",
        support::durable::StoreOptions{});
    (void)store.load(&it.scan);
    it.scan_s = s.stop();
  }
  std::vector<double> warm;
  for (int w = 0; w < sizes_.warm_passes; ++w) {
    warm.push_back(warm_pass(dir, results, it));
  }
  it.warm_s = median(warm);
  check_outputs(results, index);
  std::filesystem::remove_all(dir);

  std::vector<double> threads;
  std::vector<double> workers;
  for (const PointRecord& rec : records_) {
    it.closure_s += rec.closure_s;
    it.input_s += rec.input_s;
    it.ctor_s += rec.ctor_s;
    it.lane_spawn_s += rec.lane_spawn_s;
    it.fill_s += rec.fill_s;
    it.call_s += rec.call_s;
    it.verify_s += rec.verify_s;
    it.dtor_s += rec.dtor_s;
    it.plan += rec.plan;
    it.xfer += rec.xfer;
    threads.push_back(static_cast<double>(rec.threads_created));
    workers.push_back(rec.phase_workers);
    if (index > 0) point_ms_.push_back(rec.closure_s * 1e3);
  }
  it.threads_created = median(threads);
  it.phase_workers = median(workers);
  for (const harness::PointResult& r : results) {
    it.phases += r.timing.phases;
    it.rw_words += r.timing.rw_total;
    it.messages += r.timing.messages;
    it.wire_bytes += r.timing.wire_bytes;
    for (const rt::PhaseStats& ps : r.timing.trace) {
      it.local_words += ps.local_words;
    }
  }
  return it;
}

double Measure::warm_pass(const std::string& dir,
                          const std::vector<harness::PointResult>& cold,
                          Iteration& it) {
  Stage s("harness.warm");
  harness::SweepRunner runner(runner_options(dir));
  for (const harness::PointKey& key : keys_) {
    // Every point must resolve from the store; a computed one is a miss
    // the check below reports.
    runner.submit(key, [] { return harness::PointResult{}; });
  }
  const std::vector<harness::PointResult> results = runner.run_all();
  const double seconds = s.stop();
  it.cached = runner.stats().cached;
  check(runner.stats().computed == 0, "a warm pass computed a point");
  for (std::size_t i = 0; i < cold.size(); ++i) {
    check(results[i] == cold[i], "warm result differs from cold", i);
  }
  return seconds;
}

void Measure::check_outputs(const std::vector<harness::PointResult>& results,
                            int index) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    check(records_[i].digest == reference_[i],
          "output differs from the sequential reference", i);
    if (index == 0) {
      first_.push_back(results[i].timing);
    } else {
      check(results[i].timing == first_[i],
            "RunResult differs from the first iteration's", i);
    }
  }
  const std::uint64_t hash = trace_hash(results);
  if (index == 0) {
    report_.trace_hash = hash;
    if (cfg_.golden) {
      check(hash == *cfg_.golden, "trace hash differs from the golden");
    }
  } else {
    check(hash == report_.trace_hash, "trace hash changed between iterations");
  }
}

void Measure::check(bool ok, const char* what, std::size_t point) {
  report_.attempted += 1;
  if (ok) return;
  report_.failed += 1;
  if (report_.failures.size() < kMaxLoggedFailures) {
    report_.failures.push_back(
        point == kNoPoint
            ? std::string(what)
            : "point " + std::to_string(point) + " (" +
                  algo_name(spec_.points[point].algo) + "): " + what);
  }
}

double Measure::sync_floor() const {
  rt::Runtime runtime(spec_.machines.rbegin()->second,
                      rt::Options{.seed = cfg_.seed});
  const auto one_sync = [](rt::Context& ctx) { ctx.sync(); };
  (void)runtime.run(one_sync);
  double total = 0;
  for (int k = 0; k < kSyncFloorRuns; ++k) {
    Stage s("core.sync_floor");
    (void)runtime.run(one_sync);
    total += s.stop();
  }
  return total / kSyncFloorRuns;
}

void Measure::put(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples, double value) {
  const auto [q1, q3] = quartiles(samples);
  report_.metrics[name] = Metric{unit, value, samples.size(), q1, q3};
}

WorkloadReport Measure::run() {
  if (cfg_.traced) Tracer::global().reserve(kSpanCapacity);
  Tracer::global().set_enabled(cfg_.traced);
  {
    Stage s("algos.reference");
    for (const Point& pt : spec_.points) {
      reference_.push_back(reference_digest(pt));
    }
  }

  // Iteration 0 is the discarded warm-up; its run_all is core.first_run_s.
  // The memory one run needs is the high-water mark after it; what later
  // iterations add is core.rss_growth_mb.
  const Iteration first = iterate(0, cfg_.traced);
  const long rss_after_first = max_rss_kb();
  std::vector<Iteration> measured;
  const double seconds =
      cfg_.quick ? std::min(cfg_.seconds, kQuickSeconds) : cfg_.seconds;
  const auto t0 = Clock::now();
  while (static_cast<int>(measured.size()) < sizes_.min_iterations ||
         seconds_between(t0, Clock::now()) < seconds) {
    const int index = static_cast<int>(measured.size()) + 1;
    // Traced runs alternate recording on and off to measure its overhead.
    measured.push_back(iterate(index, cfg_.traced && index % 2 == 1));
  }
  const double rss_growth_mb =
      static_cast<double>(max_rss_kb() - rss_after_first) / 1024.0;

  const auto per_iter = [&measured](const auto& field) {
    std::vector<double> v;
    for (const Iteration& it : measured) {
      v.push_back(static_cast<double>(field(it)));
    }
    return v;
  };

  const auto field = [&](const std::string& name, const std::string& unit,
                         auto member) {
    put(name, unit,
        per_iter([member](const Iteration& it) { return it.*member; }));
  };
  const auto per_run_s = [&](const std::string& name, const std::string& unit,
                             double scale, auto member) {
    put(name, unit, per_iter([scale, member](const Iteration& it) {
          return scale * ratio(it.run_s, static_cast<double>(it.*member));
        }));
  };

  // End to end. Setup is sampled once per measured iteration, so the
  // samples spread over the whole run: back-to-back setup rounds all fell
  // in one of the host's slow or fast spells and did not repeat.
  field("setup_s", "s", &Iteration::setup_s);
  field("run_s", "s", &Iteration::run_s);
  put("phases_per_s", "1/s", per_iter([](const Iteration& it) {
        return ratio(static_cast<double>(it.phases), it.run_s);
      }));
  put("peak_rss_mb", "MB", {static_cast<double>(rss_after_first) / 1024.0});

  field("algos.input_s", "s", &Iteration::input_s);
  field("algos.call_s", "s", &Iteration::call_s);
  field("algos.verify_s", "s", &Iteration::verify_s);

  field("core.ctor_s", "s", &Iteration::ctor_s);
  field("core.lane_spawn_s", "s", &Iteration::lane_spawn_s);
  field("core.fill_s", "s", &Iteration::fill_s);
  field("core.dtor_s", "s", &Iteration::dtor_s);
  put("core.first_run_s", "s", {first.run_s});
  field("core.phases", "count", &Iteration::phases);
  field("core.rw_words", "count", &Iteration::rw_words);
  field("core.local_words", "count", &Iteration::local_words);
  per_run_s("core.us_per_phase", "us", 1e6, &Iteration::phases);
  per_run_s("core.ns_per_word", "ns", 1e9, &Iteration::rw_words);
  field("core.threads_created", "count", &Iteration::threads_created);
  field("core.phase_workers", "count", &Iteration::phase_workers);
  put("core.rss_growth_mb", "MB", {rss_growth_mb});

  const auto memo = [&](const std::string& stem, MemoCounts Iteration::*m) {
    const auto count = [&](const char* name, std::uint64_t MemoCounts::*c) {
      put(stem + name, "count", per_iter([m, c](const Iteration& it) {
            return (it.*m).*c;
          }));
    };
    count(".hits", &MemoCounts::hits);
    count(".misses", &MemoCounts::misses);
    count(".clears", &MemoCounts::clears);
    put(stem + ".hit_ratio", "ratio", per_iter([m](const Iteration& it) {
          const MemoCounts& c = it.*m;
          return ratio(static_cast<double>(c.hits),
                       static_cast<double>(c.hits + c.misses));
        }));
  };
  memo("msg.plan", &Iteration::plan);
  memo("msg.xfer", &Iteration::xfer);
  put("msg.xfer.oversize", "count", per_iter([](const Iteration& it) {
        return it.xfer.oversize;
      }));

  field("net.messages", "count", &Iteration::messages);
  field("net.wire_bytes", "bytes", &Iteration::wire_bytes);
  per_run_s("net.ns_per_message", "ns", 1e9, &Iteration::messages);

  const double jobs = spec_.jobs;
  const auto points = static_cast<double>(spec_.points.size());
  field("harness.keys_s", "s", &Iteration::keys_s);
  field("harness.submit_s", "s", &Iteration::submit_s);
  field("harness.run_all_s", "s", &Iteration::run_s);
  field("harness.compute_s", "s", &Iteration::compute_s);
  field("harness.closure_s", "s", &Iteration::closure_s);
  put("harness.overhead_s", "s", per_iter([jobs](const Iteration& it) {
        return it.run_s - it.closure_s / jobs;
      }));
  field("harness.points", "count", &Iteration::points);
  field("harness.computed", "count", &Iteration::computed);
  field("harness.cached", "count", &Iteration::cached);
  field("harness.failed", "count", &Iteration::failed);
  field("harness.warm_run_s", "s", &Iteration::warm_s);
  put("harness.lookup_us", "us", per_iter([points](const Iteration& it) {
        return 1e6 * it.warm_s / points;
      }));
  std::sort(point_ms_.begin(), point_ms_.end());
  const auto point_ms_at = [this](double q) {
    return point_ms_[static_cast<std::size_t>(
        q * static_cast<double>(point_ms_.size() - 1))];
  };
  put("harness.point_ms_p50", "ms", point_ms_, point_ms_at(0.5));
  put("harness.point_ms_p99", "ms", point_ms_, point_ms_at(0.99));

  if (cfg_.traced) {
    Tracer::global().set_enabled(true);
    put("core.sync_floor_s", "s", {sync_floor()});
    put("durable.records", "count",
        per_iter([](const Iteration& it) { return it.scan.records; }));
    put("durable.bytes", "bytes",
        per_iter([](const Iteration& it) { return it.scan.bytes; }));
    put("durable.segments", "count",
        per_iter([](const Iteration& it) { return it.scan.segments; }));
    field("durable.scan_s", "s", &Iteration::scan_s);
    std::vector<double> on;
    std::vector<double> off;
    for (const Iteration& it : measured) {
      (it.traced ? on : off).push_back(it.run_s);
    }
    put("trace.overhead_pct", "%", {100.0 * (median(on) / median(off) - 1.0)});
    put("trace.spans", "count",
        {static_cast<double>(Tracer::global().recorded())});
    put("trace.dropped", "count",
        {static_cast<double>(Tracer::global().dropped())});
  }
  Tracer::global().set_enabled(false);
  return std::move(report_);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"rank-p1024", "sort-p256",
                                              "fig-p16", "sweep-small"};
  return names;
}

WorkloadReport run_workload(const RunConfig& cfg) {
  Measure m(cfg);
  return m.run();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

std::pair<double, double> quartiles(std::vector<double> xs) {
  if (xs.empty()) return {0, 0};
  std::sort(xs.begin(), xs.end());
  const auto ld = static_cast<long>(xs.size());
  if (ld == 1) return {xs[0], xs[0]};
  const long m = ld + 1;
  const auto q = [&xs, ld, m](long i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

}  // namespace qsm::e2e
