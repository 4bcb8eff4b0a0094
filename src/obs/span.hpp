// Hierarchical RAII spans with *explicit* context propagation, layered on the
// Chrome trace-event recorder. A Span records one complete trace event and
// knows (a) which trace lane it belongs to (lane == Perfetto pid, so each
// Engine job renders as its own process track) and (b) which span encloses
// it (parent id, recorded in the event args), giving per-job/per-bucket/
// per-iteration flame graphs from one batch process.
//
// Context crosses threads by value, never by ambient thread-local alone: the
// ThreadPool captures current_context() into each task at *enqueue* time and
// installs it with a ContextScope in whichever worker eventually runs the
// task. A worker that steals a task therefore attributes it to the
// submitting job's lane, and whatever context the worker happened to carry
// before is restored when the scope closes — no leakage through stolen tasks.
//
//   const auto lane = obs::register_lane("job reno");
//   obs::ContextScope scope({lane, 0});
//   obs::Span root("job reno", "api");          // parented to nothing
//   { obs::Span iter("synth.iteration", "synth"); ... }  // parented to root
//
// Disarmed cost (tracing disabled): one relaxed atomic load per Span, and a
// two-word TLS copy per ContextScope.
#pragma once

#include <cstdint>
#include <string>

namespace abg::obs {

// Propagated execution context: the trace lane (Perfetto pid; 0 means the
// default process lane) and the innermost open span id (0 means none).
struct SpanContext {
  std::uint32_t lane = 0;
  std::uint64_t span = 0;
};

// The calling thread's current context (what a Span opened now would use).
SpanContext current_context();

// Installs `ctx` as the thread's current context; restores the previous
// context on destruction. This is the only way context moves across threads.
class ContextScope {
 public:
  explicit ContextScope(SpanContext ctx);
  ~ContextScope();

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  SpanContext prev_;
};

// Allocate a named trace lane (a Perfetto process track). The exporter emits
// a process_name metadata event for every registered lane, so a batch run
// shows one labeled lane per job. Lanes are never reused within a recording;
// clear_trace_events() drops them.
std::uint32_t register_lane(const std::string& name);

// RAII span. Arms itself only if tracing was enabled at construction. While
// open it is the thread's current context (children parent to it); on
// destruction it restores the enclosing context and records a complete event
// on its lane, with `span`/`parent` ids merged into the event args.
class Span {
 public:
  Span(std::string name, const char* cat);
  // With a pre-serialized JSON args object merged into the event args.
  Span(std::string name, const char* cat, std::string args_json);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // This span's id (0 when disarmed) — handy for cross-referencing in logs.
  std::uint64_t id() const { return id_; }

 private:
  std::string name_;
  std::string args_json_;
  const char* cat_;
  double start_us_ = 0.0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint32_t lane_ = 0;
  bool armed_ = false;
};

}  // namespace abg::obs
