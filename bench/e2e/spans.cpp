#include "spans.hpp"

#include <cstdio>
#include <string_view>

#include "support/json.hpp"

namespace qsm::e2e {

namespace {

thread_local std::uint32_t tl_open_span = 0;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

void Tracer::reserve(std::size_t capacity) {
  spans_.assign(capacity, Span{});
  next_.store(0);
}

std::uint32_t Tracer::open(const char* name, std::uint32_t parent,
                           Clock::time_point start) {
  if (!enabled()) return 0;
  const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  Span& s = spans_[idx];
  s.name = name;
  s.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  s.end_ns = s.start_ns;
  s.parent = parent;
  s.iteration = iteration_.load(std::memory_order_relaxed);
  s.thread = thread_number();
  return static_cast<std::uint32_t>(idx + 1);
}

void Tracer::close(std::uint32_t id, Clock::time_point end) {
  if (id == 0) return;
  spans_[id - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
}

std::size_t Tracer::recorded() const {
  const std::size_t n = next_.load(std::memory_order_relaxed);
  return n < spans_.size() ? n : spans_.size();
}

std::vector<std::string> Tracer::chrome_events(
    int pid, const std::string& process_name) const {
  std::vector<std::string> events;
  const std::size_t n = recorded();
  events.reserve(n + 1);
  events.push_back(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
      std::to_string(pid) + ",\"args\":{\"name\":\"" +
      support::json_escape(process_name) + "\"}}");
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const std::string_view name(s.name);
    const std::string_view cat = name.substr(0, name.find('.'));
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%u,"
                  "\"args\":{\"id\":%zu,\"parent\":%u,\"iteration\":%u}}",
                  s.name, static_cast<int>(cat.size()), cat.data(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, pid,
                  s.thread, i + 1, s.parent, s.iteration);
    events.emplace_back(buf);
  }
  return events;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Stage::Stage(const char* name, std::uint32_t parent)
    : start_(Clock::now()), outer_(tl_open_span) {
  id_ = Tracer::global().open(name, parent == kInherit ? outer_ : parent,
                              start_);
  if (id_ != 0) tl_open_span = id_;
}

double Stage::stop() {
  if (seconds_ >= 0) return seconds_;
  const auto end = Clock::now();
  Tracer::global().close(id_, end);
  if (id_ != 0) tl_open_span = outer_;
  seconds_ = seconds_between(start_, end);
  return seconds_;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<std::string>& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::fputs(events[i].c_str(), f);
    std::fputs(i + 1 < events.size() ? ",\n" : "\n", f);
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace qsm::e2e
