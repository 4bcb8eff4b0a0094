// Chrome trace-event recorder (chrome://tracing / Perfetto "JSON trace
// format", complete events, ph="X"). Disabled by default: a disarmed
// Span costs one relaxed atomic load, so instrumentation can live
// permanently on the refinement loop and thread pool.
//
//   obs::set_tracing_enabled(true);
//   { obs::Span span("score bucket reno", "synth"); ... }
//   obs::write_trace_json("t.json");   // open in ui.perfetto.dev
//
// Events carry a lane (Perfetto pid): lane 0 / pid 1 is the process lane,
// and obs::register_lane() (span.hpp) allocates additional named lanes so a
// batch run renders one flame track per Engine job. The exporter synthesizes
// process_name metadata events for every registered lane.
#pragma once

#include <cstdint>
#include <string>

#include "obs/span.hpp"

namespace abg::obs {

// Arm/disarm span recording process-wide. Spans already open keep the state
// they saw at construction.
void set_tracing_enabled(bool enabled);
bool tracing_enabled();

// Microseconds since the recorder's epoch (process start), the `ts` clock.
double trace_now_us();

// Append one complete event on an explicit lane (0 = process lane). `cat`
// groups events in the viewer ("synth", "pool", ...). args_json, when
// non-empty, must be a serialized JSON object and is embedded verbatim as
// the event's "args". This is what Span uses; prefer Span unless you are
// bridging foreign timing data.
void trace_complete_event_on(std::uint32_t lane, std::string name, const char* cat,
                             double ts_us, double dur_us, std::string args_json = {});

// Append an instant event (ph="i"), a zero-duration marker, on the calling
// thread's current lane.
void trace_instant_event(std::string name, const char* cat, std::string args_json = {});

// Append a counter event (ph="C") on the calling thread's current lane.
// args_json must be a serialized JSON object mapping series name -> numeric
// value; Perfetto renders one stacked counter track named `name` per lane.
void trace_counter_event(std::string name, const char* cat, std::string args_json);

// Drop all recorded events and registered lane names (tests; CLI between
// setup and the measured run). Lane pids are never reused across a clear, so
// a lane id handed out earlier stays valid — its events land on the same
// (now unnamed) lane rather than aliasing a lane registered later.
void clear_trace_events();

std::size_t trace_event_count();

// Serialize as {"traceEvents": [...]} — the envelope both chrome://tracing
// and Perfetto accept.
std::string trace_events_json();

// Write trace_events_json() to `path`. False on I/O failure.
bool write_trace_json(const std::string& path);

}  // namespace abg::obs
