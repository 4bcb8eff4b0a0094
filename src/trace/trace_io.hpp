// CSV persistence for traces, so collected trace banks can be saved and
// reloaded by examples/benchmarks without re-running the simulator.
//
// Ingestion is strict (ISSUE 3): numeric fields are parsed with
// full-consumption checks (no atof silent zeros), the column header must
// match, and the parsed trace passes trace/validate before it is returned.
// Failures come back as a tagged util::Result instead of std::nullopt, and
// LoadOptions::repair turns recoverably-bad rows into counted drops/clamps.
#pragma once

#include <string>
#include <string_view>

#include "trace/trace.hpp"
#include "trace/validate.hpp"
#include "util/result.hpp"

namespace abg::trace {

struct LoadOptions {
  // Forwarded to validate_trace: drop/clamp bad samples (counting them in
  // "trace.rows_dropped"/"trace.rows_repaired") instead of failing the load.
  bool repair = false;
};

// CSV layout: two header lines (metadata, column names) then one row per
// ACK sample, every value formatted as printf's "%.12g" (DESIGN.md states
// the contract).
std::string to_csv(const Trace& trace);
util::Result<Trace> from_csv(std::string_view csv, const LoadOptions& opts = {});

util::Status save_csv(const Trace& trace, const std::string& path);
util::Result<Trace> load_csv(const std::string& path, const LoadOptions& opts = {});

}  // namespace abg::trace
