#include "obs/trace_events.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "obs/json.hpp"

namespace abg::obs {

namespace {

struct Event {
  std::string name;
  std::string args_json;
  const char* cat;
  const char* ph;  // "X" (complete), "i" (instant) or "C" (counter)
  double ts_us;
  double dur_us;
  std::uint32_t pid;  // lane: 1 = process lane, 2+ = registered lanes
  std::uint32_t tid;
};

struct Recorder {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  std::vector<Event> events;
  std::map<std::uint32_t, std::string> lane_names;  // pid -> name
  // Monotonic, never reset: a lane id handed out before clear_trace_events()
  // (e.g. held by a job mid-run) must never alias a lane registered after the
  // clear, or its events would be attributed to the wrong lane.
  std::uint32_t next_lane_pid = 2;  // pid 1 is the process lane
  std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  std::atomic<std::uint32_t> next_tid{1};
};

Recorder& recorder() {
  static Recorder* r = new Recorder;  // leaked: outlive static destructors
  return *r;
}

// Small dense thread ids (the viewer lays tracks out per tid; raw pthread ids
// would scatter them).
std::uint32_t this_tid() {
  thread_local std::uint32_t tid =
      recorder().next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// Lane 0 is shorthand for the default process lane (pid 1).
std::uint32_t lane_pid(std::uint32_t lane) { return lane == 0 ? 1 : lane; }

void append(Event e) {
  auto& r = recorder();
  std::lock_guard lk(r.mu);
  r.events.push_back(std::move(e));
}

void write_metadata_event(JsonWriter& w, std::uint32_t pid, const std::string& name) {
  w.begin_object();
  w.key("name");
  w.value("process_name");
  w.key("ph");
  w.value("M");
  w.key("pid");
  w.value(static_cast<std::uint64_t>(pid));
  w.key("args");
  w.begin_object();
  w.key("name");
  w.value(name);
  w.end_object();
  w.end_object();
}

}  // namespace

void set_tracing_enabled(bool enabled) {
  recorder().enabled.store(enabled, std::memory_order_relaxed);
}

bool tracing_enabled() { return recorder().enabled.load(std::memory_order_relaxed); }

double trace_now_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   recorder().epoch)
      .count();
}

std::uint32_t register_lane(const std::string& name) {
  auto& r = recorder();
  std::lock_guard lk(r.mu);
  const std::uint32_t pid = r.next_lane_pid++;
  r.lane_names[pid] = name;
  return pid;
}

void trace_complete_event_on(std::uint32_t lane, std::string name, const char* cat,
                             double ts_us, double dur_us, std::string args_json) {
  append(Event{std::move(name), std::move(args_json), cat, "X", ts_us, dur_us,
               lane_pid(lane), this_tid()});
}

void trace_instant_event(std::string name, const char* cat, std::string args_json) {
  if (!tracing_enabled()) return;
  append(Event{std::move(name), std::move(args_json), cat, "i", trace_now_us(), 0.0,
               lane_pid(current_context().lane), this_tid()});
}

void trace_counter_event(std::string name, const char* cat, std::string args_json) {
  if (!tracing_enabled()) return;
  append(Event{std::move(name), std::move(args_json), cat, "C", trace_now_us(), 0.0,
               lane_pid(current_context().lane), this_tid()});
}

void clear_trace_events() {
  auto& r = recorder();
  std::lock_guard lk(r.mu);
  r.events.clear();
  r.lane_names.clear();
}

std::size_t trace_event_count() {
  auto& r = recorder();
  std::lock_guard lk(r.mu);
  return r.events.size();
}

std::string trace_events_json() {
  auto& r = recorder();
  std::lock_guard lk(r.mu);
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  // Metadata first: name the process lane and every registered job lane so
  // Perfetto shows labeled per-job tracks instead of bare pids.
  if (!r.events.empty() || !r.lane_names.empty()) {
    write_metadata_event(w, 1, "abagnale");
  }
  for (const auto& [pid, name] : r.lane_names) {
    write_metadata_event(w, pid, name);
  }
  for (const auto& e : r.events) {
    w.begin_object();
    w.key("name");
    w.value(e.name);
    w.key("cat");
    w.value(e.cat);
    w.key("ph");
    w.value(e.ph);
    w.key("ts");
    w.value(e.ts_us);
    if (e.ph[0] == 'X') {
      w.key("dur");
      w.value(e.dur_us);
    } else if (e.ph[0] == 'i') {
      w.key("s");  // instant-event scope: thread
      w.value("t");
    }
    w.key("pid");
    w.value(static_cast<std::uint64_t>(e.pid));
    w.key("tid");
    w.value(static_cast<std::uint64_t>(e.tid));
    if (!e.args_json.empty()) {
      w.key("args");
      w.raw(e.args_json);
    }
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.end_object();
  return w.take();
}

bool write_trace_json(const std::string& path) {
  const std::string body = trace_events_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = n == body.size() && std::fclose(f) == 0;
  if (n != body.size()) std::fclose(f);
  return ok;
}

}  // namespace abg::obs
