// Shared plumbing for the table/figure reproduction harnesses. Each bench
// binary prints the paper's rows for one table or figure. Scale is selected
// with the ABG_SCALE environment variable:
//   quick (default) — minutes-scale bounds; shapes match the paper.
//   full            — paper-scale depth/sample budgets (hours).
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/abagnale.hpp"
#include "dsl/known_handlers.hpp"
#include "net/simulator.hpp"
#include "obs/report.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"
#include "trace/trace.hpp"

namespace abg::bench {

inline bool full_scale() {
  const char* s = std::getenv("ABG_SCALE");
  return s != nullptr && std::string(s) == "full";
}

// Optional row filter for the per-CCA tables: ABG_ONLY=reno,vegas runs just
// those rows (useful when iterating on one CCA).
inline bool row_selected(const std::string& cca) {
  const char* s = std::getenv("ABG_ONLY");
  if (s == nullptr) return true;
  const std::string list = std::string(",") + s + ",";
  return list.find("," + cca + ",") != std::string::npos;
}

// Trace collection matching §3.2's testbed sweep, sized by scale. One
// environment carries mild random loss and one carries cross traffic so
// every CCA — including loss-free converging ones like Vegas — exhibits
// window *dynamics* in its steady state (§3.2's trace-diversity requirement:
// without it, degenerate hold-the-window handlers can win).
inline std::vector<trace::Trace> collect(const std::string& cca, std::uint64_t seed = 1) {
  auto envs = net::default_environments(full_scale() ? 5 : 3, seed);
  if (!full_scale()) {
    for (auto& e : envs) e.duration_s = 15.0;
  }
  if (envs.size() >= 2) envs[1].random_loss = 0.002;
  if (envs.size() >= 3) envs[2].cross_traffic_bps = 0.3 * envs[2].bandwidth_bps;
  return net::collect_traces(cca, envs);
}

// Steady-state segment pool for a CCA's traces, built as every pipeline
// entry point builds it (default PipelineOptions).
inline std::vector<trace::Segment> segments_for(const std::vector<trace::Trace>& traces) {
  return core::build_segment_pool(traces, core::PipelineOptions{});
}

// The longest-duration segment of each trace: the segments where steady-
// state structure (BBR pulses, H-TCP's ramp) is actually visible.
inline std::vector<trace::Segment> longest_segments(const std::vector<trace::Trace>& traces) {
  std::vector<trace::Segment> out;
  for (const auto& t : traces) {
    auto segs = segments_for({t});
    std::size_t best = 0;
    double best_dur = -1.0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const double dur =
          segs[i].samples.back().sig.now - segs[i].samples.front().sig.now;
      if (dur > best_dur) {
        best_dur = dur;
        best = i;
      }
    }
    if (!segs.empty()) out.push_back(std::move(segs[best]));
  }
  return out;
}

// Synthesis bounds per scale. `per_cca_timeout_s` keeps a 20-row table
// bounded; the loop returns its best-so-far handler on expiry (§4.4).
inline synth::SynthesisOptions synth_opts(double per_cca_timeout_s) {
  synth::SynthesisOptions o;
  if (full_scale()) {
    o.initial_samples = 16;
    o.concretize_budget = 64;
    o.max_iterations = 6;
    o.exhaustive_cap = 4000;
    o.timeout_s = per_cca_timeout_s * 20;
  } else {
    o.initial_samples = 8;
    o.concretize_budget = 24;
    o.max_iterations = 4;
    o.exhaustive_cap = 300;
    o.max_depth = 4;
    o.max_nodes = 9;
    o.max_holes = 3;
    o.dopts.max_points = 128;
    o.timeout_s = per_cca_timeout_s;
  }
  o.initial_keep = 5;
  o.seed = 7;
  return o;
}

// Distance of a known handler over a segment set, with Table-2 style
// packet-unit magnitudes.
inline double handler_distance(const dsl::Expr& handler,
                               const std::vector<trace::Segment>& segs,
                               distance::Metric metric = distance::Metric::kDtw) {
  distance::DistanceOptions dopts;
  return synth::total_distance(handler, segs, metric, dopts);
}

inline void rule(char c = '-', int width = 118) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

// "Table 2 — synthesized vs ..." -> "table_2_synthesized_vs_..." (truncated).
inline std::string slug(const std::string& title) {
  std::string out;
  bool gap = false;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (gap && !out.empty()) out += '_';
      gap = false;
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      gap = true;
    }
    if (out.size() >= 48) break;
  }
  return out.empty() ? "bench" : out;
}

inline void banner(const std::string& title) {
  rule('=');
  std::printf("%s   [scale=%s]\n", title.c_str(), full_scale() ? "full" : "quick");
  rule('=');
  // Every bench leaves an obs run report next to its printed table, so the
  // recorded BENCH_* trajectories carry counter context (handlers scored,
  // DTW evals, sim packets) alongside the numbers.
  obs::write_metrics_json_at_exit(slug(title) + ".metrics.json");
}

}  // namespace abg::bench
