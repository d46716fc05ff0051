#include "harness/cache.hpp"

#include <cctype>
#include <cstdio>

namespace qsm::harness {

std::string cache_file_stem(std::string_view workload) {
  std::string stem;
  stem.reserve(workload.size());
  for (const char c : workload) {
    const auto uc = static_cast<unsigned char>(c);
    stem.push_back(std::isalnum(uc) || c == '-' || c == '_' ? c : '_');
  }
  return stem.empty() ? std::string("default") : stem;
}

ResultCache::ResultCache(std::string dir, std::string workload,
                         support::durable::StoreOptions store_opts)
    : path_(std::move(dir) + "/" + cache_file_stem(workload) + ".qstore"),
      store_(path_, store_opts) {}

ResultCache::~ResultCache() = default;

// ---- serialization --------------------------------------------------------

namespace {

void write_timing(support::JsonWriter& w, const rt::RunResult& t) {
  // Aggregates in a fixed-order array, then one array per phase. A run
  // with no phases and all-zero aggregates (a metrics-only point) is
  // omitted entirely by the caller. Fault counters extend the arrays
  // (9 -> 13 aggregates, 12 -> 17 per phase) only when a fault actually
  // fired, so fault-free records keep their pre-fault bytes.
  const bool faults =
      t.retries + t.drops + t.duplicates + t.replays != 0;
  w.key("t").begin_array();
  w.value(t.total_cycles)
      .value(t.comm_cycles)
      .value(t.barrier_cycles)
      .value(t.compute_cycles)
      .value(t.phases)
      .value(t.rw_total)
      .value(t.kappa_max)
      .value(t.messages)
      .value(t.wire_bytes);
  if (faults) {
    w.value(t.retries).value(t.drops).value(t.duplicates).value(t.replays);
  }
  w.end_array();
  w.key("ph").begin_array();
  for (const auto& ps : t.trace) {
    w.begin_array();
    w.value(ps.arrival_spread)
        .value(ps.exchange_cycles)
        .value(ps.barrier_cycles)
        .value(ps.m_op_max)
        .value(ps.m_rw_max)
        .value(ps.max_put_words)
        .value(ps.max_get_words)
        .value(ps.rw_total)
        .value(ps.local_words)
        .value(ps.kappa)
        .value(ps.messages)
        .value(ps.wire_bytes);
    if (faults) {
      w.value(ps.retries)
          .value(ps.drops)
          .value(ps.duplicates)
          .value(ps.replays)
          .value(ps.p_effective);
    }
    w.end_array();
  }
  w.end_array();
}

bool has_timing(const rt::RunResult& t) {
  return !(t == rt::RunResult{});
}

bool read_timing(const support::JsonValue& v, rt::RunResult& out) {
  const auto* t = v.find("t");
  const auto* ph = v.find("ph");
  if (t == nullptr || ph == nullptr ||
      !t->is(support::JsonValue::Kind::Array) ||
      (t->arr.size() != 9 && t->arr.size() != 13) ||
      !ph->is(support::JsonValue::Kind::Array)) {
    return false;
  }
  out.total_cycles = t->arr[0].as_i64();
  out.comm_cycles = t->arr[1].as_i64();
  out.barrier_cycles = t->arr[2].as_i64();
  out.compute_cycles = t->arr[3].as_i64();
  out.phases = t->arr[4].as_u64();
  out.rw_total = t->arr[5].as_u64();
  out.kappa_max = t->arr[6].as_u64();
  out.messages = t->arr[7].as_u64();
  out.wire_bytes = t->arr[8].as_i64();
  if (t->arr.size() == 13) {
    out.retries = t->arr[9].as_u64();
    out.drops = t->arr[10].as_u64();
    out.duplicates = t->arr[11].as_u64();
    out.replays = t->arr[12].as_u64();
  }
  out.trace.reserve(ph->arr.size());
  for (const auto& row : ph->arr) {
    if (!row.is(support::JsonValue::Kind::Array) ||
        (row.arr.size() != 12 && row.arr.size() != 17)) {
      return false;
    }
    rt::PhaseStats ps;
    ps.arrival_spread = row.arr[0].as_i64();
    ps.exchange_cycles = row.arr[1].as_i64();
    ps.barrier_cycles = row.arr[2].as_i64();
    ps.m_op_max = row.arr[3].as_i64();
    ps.m_rw_max = row.arr[4].as_u64();
    ps.max_put_words = row.arr[5].as_u64();
    ps.max_get_words = row.arr[6].as_u64();
    ps.rw_total = row.arr[7].as_u64();
    ps.local_words = row.arr[8].as_u64();
    ps.kappa = row.arr[9].as_u64();
    ps.messages = row.arr[10].as_u64();
    ps.wire_bytes = row.arr[11].as_i64();
    if (row.arr.size() == 17) {
      ps.retries = row.arr[12].as_u64();
      ps.drops = row.arr[13].as_u64();
      ps.duplicates = row.arr[14].as_u64();
      ps.replays = row.arr[15].as_u64();
      ps.p_effective = row.arr[16].as_u64();
    }
    out.trace.push_back(ps);
  }
  return true;
}

}  // namespace

std::string ResultCache::serialize(const PointResult& r) {
  support::JsonWriter w;
  w.begin_object();
  if (has_timing(r.timing)) write_timing(w, r.timing);
  if (!r.metrics.empty()) {
    w.key("m").begin_object();
    for (const auto& [name, value] : r.metrics) {
      w.key(name).value(value);
    }
    w.end_object();
  }
  if (!r.ok()) {
    w.key("f").begin_object();
    w.key("status").value(r.status);
    w.key("reason").value(r.fail_reason);
    w.key("elapsed_s").value(r.fail_elapsed_s);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::optional<PointResult> ResultCache::deserialize(
    const support::JsonValue& v) {
  if (!v.is(support::JsonValue::Kind::Object)) return std::nullopt;
  PointResult r;
  if (v.find("t") != nullptr) {
    if (!read_timing(v, r.timing)) return std::nullopt;
  }
  if (const auto* m = v.find("m")) {
    if (!m->is(support::JsonValue::Kind::Object)) return std::nullopt;
    for (const auto& [name, value] : m->obj) {
      if (!value.is(support::JsonValue::Kind::Number)) return std::nullopt;
      r.metrics.emplace(name, value.as_double());
    }
  }
  if (const auto* f = v.find("f")) {
    const auto* status = f->find("status");
    const auto* reason = f->find("reason");
    const auto* elapsed = f->find("elapsed_s");
    if (status == nullptr || reason == nullptr || elapsed == nullptr ||
        !status->is(support::JsonValue::Kind::String) ||
        !reason->is(support::JsonValue::Kind::String) ||
        !elapsed->is(support::JsonValue::Kind::Number) ||
        status->str.empty()) {
      return std::nullopt;
    }
    r.status = status->str;
    r.fail_reason = reason->str;
    r.fail_elapsed_s = elapsed->as_double();
  }
  return r;
}

// ---- file I/O -------------------------------------------------------------

void ResultCache::load_locked() {
  if (loaded_) return;
  loaded_ = true;
  support::durable::ScanReport rep;
  auto records = store_.load(&rep);
  torn_tail_ = rep.torn_tail;
  corrupt_lines_ = rep.corrupt_events;
  if (rep.torn_tail || rep.corrupt_events != 0) {
    std::fprintf(stderr,
                 "warning: result cache %s: recovered %llu records "
                 "(%llu corrupt event%s%s)\n",
                 path_.c_str(), static_cast<unsigned long long>(rep.records),
                 static_cast<unsigned long long>(rep.corrupt_events),
                 rep.corrupt_events == 1 ? "" : "s",
                 rep.torn_tail ? ", torn tail" : "");
  }
  index_.reserve(records.size());
  for (auto& rec : records) {
    // The frame passed its CRC, so a value that fails to parse is a
    // writer bug, not disk damage — but tolerate it the same way.
    const auto doc = support::parse_json(rec.value);
    std::optional<PointResult> result = doc ? deserialize(*doc) : std::nullopt;
    if (result) {
      // Log order, so the last record for a key wins.
      index_.insert_or_assign(std::move(rec.key), std::move(*result));
    } else {
      corrupt_lines_++;
      std::fprintf(stderr,
                   "warning: result cache %s: skipping undecodable record\n",
                   path_.c_str());
    }
  }
}

std::size_t ResultCache::loaded_entries() {
  const std::lock_guard lk(mu_);
  load_locked();
  return index_.size();
}

bool ResultCache::torn_tail() {
  const std::lock_guard lk(mu_);
  load_locked();
  return torn_tail_;
}

std::size_t ResultCache::corrupt_lines() {
  const std::lock_guard lk(mu_);
  load_locked();
  return corrupt_lines_;
}

const PointResult* ResultCache::lookup(const PointKey& key) {
  const std::lock_guard lk(mu_);
  load_locked();
  // unordered_map nodes never move, so the pointer survives later inserts;
  // only a supersede of this key (a store) rewrites what it points to.
  const auto it = index_.find(key.text);
  return it == index_.end() ? nullptr : &it->second;
}

void ResultCache::store_locked(const PointKey& key,
                               const PointResult& result) {
  // A key already cached with a usable result (or this exact result)
  // skips the store; a cached *failure row* is superseded by whatever the
  // caller brings (a retry produced something newer), and the replacement
  // record wins on reload.
  const auto it = index_.find(key.text);
  if (it != index_.end() && (it->second.ok() || it->second == result)) return;
  // The index insert waits until the record is Written and Synced, so
  // memory never claims more than the disk durably holds.
  auto written = store_.append(store_.make(key.text, serialize(result)));
  if (!written.has_value()) {
    std::fprintf(stderr, "warning: cannot write result cache %s\n",
                 path_.c_str());
    return;
  }
  auto synced = store_.sync(std::move(*written));
  if (!synced.has_value()) return;
  index_.insert_or_assign(key.text, result);
  (void)store_.publish(std::move(*synced));
}

void ResultCache::store(
    const std::vector<std::pair<PointKey, PointResult>>& batch) {
  const std::lock_guard lk(mu_);
  load_locked();
  for (const auto& [key, result] : batch) store_locked(key, result);
}

void ResultCache::store_one(const PointKey& key, const PointResult& result) {
  const std::lock_guard lk(mu_);
  load_locked();
  store_locked(key, result);
}

}  // namespace qsm::harness
