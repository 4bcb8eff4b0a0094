// Observability layer tests: registry primitives under concurrency, timer
// behaviour, exporter JSON validity (checked with a strict mini-parser), and
// the pipeline-level guarantees — a synthesis run populates the core
// counters, and the registry totals agree exactly with the hand-counted
// fields in SynthesisResult / Mister880Result (the double-accounting guard).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "net/simulator.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/timer.hpp"
#include "obs/trace_events.hpp"
#include "synth/mister880.hpp"
#include "synth/refinement.hpp"
#include "trace/trace.hpp"

namespace abg {
namespace {

// ---- registry primitives --------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  auto& c = obs::counter("test.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsCounter, HandleIsStableAcrossLookups) {
  auto& a = obs::counter("test.stable");
  auto& b = obs::counter("test.stable");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsGauge, TracksLastAndMax) {
  auto& g = obs::gauge("test.gauge");
  g.reset();
  g.set(5.0);
  g.set(11.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.last(), 2.0);
  EXPECT_DOUBLE_EQ(g.max(), 11.0);
}

// Satellite regression test (ISSUE 5): the high-watermark must be maintained
// with a CAS loop. With a racy load-compare-store, two concurrent set()
// calls can interleave so the larger value is overwritten and the true max
// is lost; under contention from many threads each writing a distinct peak,
// the recorded max must still be the global maximum.
TEST(ObsGauge, ConcurrentSetNeverLosesMax) {
  auto& g = obs::gauge("test.gauge_mt_max");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  for (int round = 0; round < 3; ++round) {
    g.reset();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&g, t] {
        for (int i = 0; i < kPerThread; ++i) {
          // Every thread writes an increasing sequence with a distinct
          // offset; the global max over all writes is known exactly.
          g.set(static_cast<double>(i * kThreads + t));
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_DOUBLE_EQ(g.max(), static_cast<double>((kPerThread - 1) * kThreads + kThreads - 1));
  }
}

// ---- labeled series -------------------------------------------------------

TEST(ObsLabels, SeriesKeyRendersSortedAndEscaped) {
  EXPECT_EQ(obs::series_key("m", {}), "m");
  EXPECT_EQ(obs::series_key("m", {{"job", "reno"}}), "m{job=\"reno\"}");
  // Keys sort, values escape.
  EXPECT_EQ(obs::series_key("m", {{"z", "1"}, {"a", "x\"y"}}), "m{a=\"x\\\"y\",z=\"1\"}");
}

TEST(ObsLabels, LabeledSeriesAreIndependentOfUnlabeled) {
  auto& plain = obs::counter("test.labeled_counter");
  auto& reno = obs::counter("test.labeled_counter", {{"job", "reno"}});
  auto& cubic = obs::counter("test.labeled_counter", {{"job", "cubic"}});
  plain.reset();
  reno.reset();
  cubic.reset();
  EXPECT_NE(&plain, &reno);
  EXPECT_NE(&reno, &cubic);
  plain.add(1);
  reno.add(2);
  cubic.add(3);
  const auto s = obs::snapshot();
  EXPECT_EQ(s.counter_value("test.labeled_counter"), 1u);
  EXPECT_EQ(s.counter_value("test.labeled_counter", {{"job", "reno"}}), 2u);
  EXPECT_EQ(s.counter_value("test.labeled_counter", {{"job", "cubic"}}), 3u);
}

TEST(ObsLabels, LabelOrderDoesNotSplitSeries) {
  auto& a = obs::counter("test.label_order", {{"job", "x"}, {"bucket", "b0"}});
  auto& b = obs::counter("test.label_order", {{"bucket", "b0"}, {"job", "x"}});
  EXPECT_EQ(&a, &b);
}

TEST(ObsLabels, DuplicateLabelKeysKeepFirstValue) {
  // A repeated key must collapse during normalization (first value after the
  // sort wins): the Prometheus exposition format forbids a repeated label
  // name inside one label block.
  auto& dup = obs::counter("test.label_dupkey", {{"job", "a"}, {"job", "b"}});
  auto& canon = obs::counter("test.label_dupkey", {{"job", "a"}});
  EXPECT_EQ(&dup, &canon);
  EXPECT_EQ(obs::series_key("m", {{"job", "b"}, {"job", "a"}}), "m{job=\"a\"}");
}

TEST(ObsLabels, FamilyCardinalityCapCollapsesIntoOverflowSeries) {
  obs::counter("obs.series_overflow").reset();
  // Register far more label sets than one family may hold. The first
  // kMaxSeriesPerFamily are distinct; the rest all resolve to the single
  // {overflow="true"} series.
  auto& first = obs::counter("test.cap_family", {{"job", "job-0"}});
  first.reset();
  obs::Counter* overflow_series = nullptr;
  for (std::size_t i = 1; i < obs::kMaxSeriesPerFamily + 50; ++i) {
    auto& c = obs::counter("test.cap_family", {{"job", "job-" + std::to_string(i)}});
    c.add();
    overflow_series = &c;  // the final lookups are all the overflow series
  }
  auto& direct_overflow = obs::counter("test.cap_family", {{"overflow", "true"}});
  EXPECT_EQ(overflow_series, &direct_overflow);
  EXPECT_GE(obs::counter("obs.series_overflow").value(), 50u);
  // The overflow series absorbed every post-cap increment.
  EXPECT_GE(direct_overflow.value(), 50u);
}

TEST(ObsLabels, ExcessLabelsPerSeriesAreDropped) {
  obs::Labels many;
  for (int i = 0; i < 8; ++i) {
    many.emplace_back("k" + std::to_string(i), "v");
  }
  auto& c = obs::counter("test.label_trunc", many);
  obs::Labels first_four(many.begin(), many.begin() + obs::kMaxLabelsPerSeries);
  EXPECT_EQ(&c, &obs::counter("test.label_trunc", first_four));
}

TEST(ObsHistogram, BucketBoundariesAreInclusiveUpperEdges) {
  const std::array<double, 3> bounds{1.0, 10.0, 100.0};
  obs::Histogram h(bounds);
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (edge is inclusive)
  h.observe(1.5);    // bucket 1
  h.observe(10.0);   // bucket 1
  h.observe(100.0);  // bucket 2
  h.observe(101.0);  // overflow bucket
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 10.0 + 100.0 + 101.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 101.0);
}

TEST(ObsHistogram, ConcurrentObservationsSumExactly) {
  const std::array<double, 2> bounds{10.0, 100.0};
  obs::Histogram h(bounds);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(h.counts()[0], static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsTimer, ObservationsAreMonotoneNonNegative) {
  obs::Histogram h(obs::default_time_bounds_us());
  {
    obs::Timer t(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GE(t.elapsed_us(), 0.0);
  }
  ASSERT_EQ(h.count(), 1u);
  // steady_clock: a 2 ms sleep must observe >= 2000 us.
  EXPECT_GE(h.sum(), 2000.0);
  EXPECT_GE(h.max(), h.min());
  const double first_sum = h.sum();
  {
    obs::Timer t(h);
    t.stop();
    t.stop();  // idempotent: records once
  }
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.sum(), first_sum);
}

TEST(ObsRegistry, ResetAllZeroesEverything) {
  obs::counter("test.reset_me").add(7);
  obs::gauge("test.reset_gauge").set(3.0);
  obs::histogram("test.reset_hist").observe(5.0);
  obs::reset_all();
  const auto s = obs::snapshot();
  EXPECT_EQ(s.counter_value("test.reset_me"), 0u);
  for (const auto& g : s.gauges) {
    if (g.name == "test.reset_gauge") {
      EXPECT_DOUBLE_EQ(g.last, 0.0);
      EXPECT_DOUBLE_EQ(g.max, 0.0);
    }
  }
  for (const auto& h : s.histograms) {
    if (h.name == "test.reset_hist") {
      EXPECT_EQ(h.count, 0u);
    }
  }
}

// ---- exporters ------------------------------------------------------------

TEST(ObsJson, EscapesAndNumbers) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  EXPECT_EQ(obs::json_number(1e300), "1e+300");
  // JSON has no Inf/NaN.
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(ObsReport, MetricsJsonRoundTripsThroughParser) {
  obs::reset_all();
  obs::counter("test.report_counter").add(42);
  obs::gauge("test.report \"gauge\"").set(1.5);  // name needing escaping
  obs::histogram("test.report_hist").observe(123.0);
  const std::string json = obs::metrics_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"test.report_counter\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(ObsTraceEvents, DisabledRecorderStaysEmpty) {
  obs::clear_trace_events();
  obs::set_tracing_enabled(false);
  { obs::Span span("ignored", "test"); }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(ObsTraceEvents, SpansRoundTripThroughParser) {
  obs::clear_trace_events();
  obs::set_tracing_enabled(true);
  {
    obs::Span outer("outer \"span\"", "test");
    obs::Span inner("inner", "test", "{\"iter\":1}");
    obs::trace_instant_event("marker", "test");
  }
  obs::set_tracing_enabled(false);
  EXPECT_EQ(obs::trace_event_count(), 3u);
  const std::string json = obs::trace_events_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // User args survive the span-id merge (every span's args now lead with its
  // own id and its parent's; see test_spans.cpp for the id semantics).
  EXPECT_NE(json.find("\"iter\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"span\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"parent\":"), std::string::npos) << json;
  obs::clear_trace_events();
}

// ---- pipeline integration -------------------------------------------------

std::vector<trace::Segment> reno_segments() {
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.04;
  env.duration_s = 8.0;
  env.seed = 33;
  auto t = net::run_connection("reno", env);
  return trace::segment_all({trace::trim_warmup(t, 2.0)}, 20);
}

TEST(ObsPipeline, SimulatorPopulatesPacketCounters) {
  obs::reset_all();
  auto segs = reno_segments();
  ASSERT_FALSE(segs.empty());
  const auto s = obs::snapshot();
  EXPECT_GT(s.counter_value("sim.packets_sent"), 0u);
  EXPECT_GT(s.counter_value("sim.packets_acked"), 0u);
  EXPECT_GT(s.counter_value("sim.events"), 0u);
  EXPECT_EQ(s.counter_value("sim.connections"), 1u);
  // A sender cannot have more packets acknowledged than sent.
  EXPECT_LE(s.counter_value("sim.packets_acked"), s.counter_value("sim.packets_sent"));
}

TEST(ObsPipeline, SynthesizePopulatesCoreMetricsAndAgreesWithResult) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 2u);
  obs::reset_all();

  synth::SynthesisOptions opts;
  opts.initial_samples = 6;
  opts.initial_keep = 3;
  opts.initial_segments = 2;
  opts.concretize_budget = 12;
  opts.max_iterations = 2;
  opts.exhaustive_cap = 40;
  opts.max_depth = 3;
  opts.max_nodes = 5;
  opts.max_holes = 2;
  opts.threads = 2;
  opts.seed = 5;
  const auto result = synth::synthesize(dsl::reno_dsl(), segs, opts);

  const auto s = obs::snapshot();
  EXPECT_GT(s.counter_value("synth.handlers_scored"), 0u);
  EXPECT_GT(s.counter_value("synth.sketches_enumerated"), 0u);
  EXPECT_GT(s.counter_value("synth.iterations"), 0u);
  EXPECT_GT(s.counter_value("distance.dtw_evals"), 0u);
  EXPECT_GT(s.counter_value("distance.dtw_cells"), 0u);
  EXPECT_GT(s.counter_value("pool.tasks_queued"), 0u);
  EXPECT_EQ(s.counter_value("pool.tasks_queued"), s.counter_value("pool.tasks_executed"));

  // The registry and the hand-counted result fields must agree exactly —
  // this is the double-accounting guard.
  EXPECT_EQ(s.counter_value("synth.handlers_scored"), result.total_handlers_scored);
  EXPECT_EQ(s.counter_value("synth.sketches_enumerated"), result.total_sketches);
  EXPECT_EQ(s.counter_value("synth.iterations"), result.iterations.size());
  EXPECT_EQ(s.counter_value("synth.candidates_validated"), result.candidates_validated);
}

TEST(ObsPipeline, Mister880CountersAgreeWithResult) {
  auto segs = reno_segments();
  ASSERT_FALSE(segs.empty());
  obs::reset_all();

  synth::Mister880Options opts;
  opts.max_sketches = 30;
  opts.concretize_budget = 8;
  opts.max_depth = 3;
  opts.max_nodes = 4;
  opts.max_holes = 1;
  const auto result = synth::mister880_synthesize(dsl::reno_dsl(), {segs[0]}, opts);

  const auto s = obs::snapshot();
  EXPECT_GT(result.sketches_tried, 0u);
  EXPECT_EQ(s.counter_value("mister880.sketches_tried"), result.sketches_tried);
  EXPECT_EQ(s.counter_value("mister880.handlers_tried"), result.handlers_tried);
}

TEST(ObsPipeline, SynthesizeEmitsIterationSpansWhenTracingEnabled) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 2u);
  obs::clear_trace_events();
  obs::set_tracing_enabled(true);

  synth::SynthesisOptions opts;
  opts.initial_samples = 4;
  opts.initial_keep = 2;
  opts.initial_segments = 2;
  opts.concretize_budget = 8;
  opts.max_iterations = 2;
  opts.exhaustive_cap = 20;
  opts.max_depth = 3;
  opts.max_nodes = 4;
  opts.max_holes = 1;
  opts.threads = 2;
  const auto result = synth::synthesize(dsl::reno_dsl(), segs, opts);
  obs::set_tracing_enabled(false);

  const std::string json = obs::trace_events_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  // At least one span per refinement iteration, plus bucket-scoring and
  // pool-task spans underneath.
  std::size_t iter_spans = 0;
  for (std::size_t pos = 0; (pos = json.find("\"synth.iteration\"", pos)) != std::string::npos;
       ++pos) {
    ++iter_spans;
  }
  EXPECT_GE(iter_spans, result.iterations.size());
  EXPECT_NE(json.find("\"pool.task\""), std::string::npos);
  EXPECT_NE(json.find("score "), std::string::npos);
  obs::clear_trace_events();
}

}  // namespace
}  // namespace abg
