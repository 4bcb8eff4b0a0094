// Job description and result types for the batch synthesis engine
// (abg::api::Engine). A JobSpec is everything one synthesis run needs —
// trace source, search options, budgets, checkpointing — expressed as a
// builder so call sites read as one fluent sentence:
//
//   api::JobSpec spec = api::JobSpec()
//       .with_name("reno")
//       .add_trace_path("traces/reno_0.csv")
//       .with_dsl("reno")
//       .with_timeout(120.0);
//
// Validation is eager (Engine::submit rejects a bad spec with
// kInvalidArgument before any work starts), and every knob defaults to the
// single-job CLI behavior so a one-line spec does the expected thing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/abagnale.hpp"
#include "dsl/dsl.hpp"
#include "synth/mister880.hpp"
#include "synth/refinement.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "util/result.hpp"
#include "util/status.hpp"

namespace abg::api {

struct JobResult;  // defined below; JobSpec::on_complete receives one

struct JobSpec {
  // What to run. kPipeline is the full Figure-1 pipeline (classify unless a
  // DSL is forced, segment, refine); kMister880 is the HotNets'21 decision-
  // problem baseline over pre-segmented input.
  enum class Kind { kPipeline, kMister880 };
  Kind kind = Kind::kPipeline;

  // Display/report label. Auto-assigned ("job-N") at submit when empty.
  std::string name;

  // Trace sources, combined in order: CSVs loaded at job start, then the
  // in-memory traces. A failed load fails the whole job (batch manifests
  // should not silently shrink their inputs).
  std::vector<std::string> trace_paths;
  std::vector<trace::Trace> traces;
  trace::LoadOptions load;

  // Pre-segmented input: when non-empty, the pipeline's trim/segment stage
  // is bypassed and these segments feed synthesis directly. Requires an
  // explicit DSL (custom_dsl or pipeline.dsl_override) since there is no
  // trace left to classify.
  std::vector<trace::Segment> segments;

  // An explicit DSL object, for callers that built their own search space;
  // takes precedence over pipeline.dsl_override.
  std::optional<dsl::Dsl> custom_dsl;

  // Full pipeline configuration (synthesis options nested inside).
  core::PipelineOptions pipeline;
  // Baseline configuration, used only when kind == kMister880.
  synth::Mister880Options mister880;

  // Streamed per-iteration progress, forwarded into
  // SynthesisOptions::on_iteration; runs on the job's driver thread.
  std::function<void(const synth::IterationReport&)> on_iteration;

  // Fired once on the driver thread as the job starts running. A job
  // cancelled while still queued never starts and never fires it.
  std::function<void()> on_start;

  // Fired exactly once when the job reaches a terminal state, with the full
  // JobResult — before the done latch releases waiters. It runs on the
  // driver thread, or on the thread that cancelled a job still queued.
  // The serve layer uses this to write the terminal WAL record + result file
  // so a client polling GET /jobs/<id> never sees "done" before the result
  // is durable. Keep it cheap-ish: it blocks its thread.
  std::function<void(const JobResult&)> on_complete;

  // The refinement stage of a kPipeline job over traces without a custom
  // DSL (the core::Abagnale path), an in-process hook like the callbacks
  // above: empty runs synth::synthesize on the engine's pool;
  // dist::Coordinator supplies the same driver over its worker fleet. No
  // manifest, CLI or HTTP surface can set it.
  core::Synthesizer synthesizer;

  // --- Builder surface. -----------------------------------------------------
  JobSpec& with_name(std::string n) {
    name = std::move(n);
    return *this;
  }
  JobSpec& add_trace_path(std::string path) {
    trace_paths.push_back(std::move(path));
    return *this;
  }
  JobSpec& add_trace(trace::Trace t) {
    traces.push_back(std::move(t));
    return *this;
  }
  JobSpec& with_segments(std::vector<trace::Segment> segs) {
    segments = std::move(segs);
    return *this;
  }
  JobSpec& with_dsl(std::string dsl_name) {
    pipeline.dsl_override = std::move(dsl_name);
    return *this;
  }
  JobSpec& with_custom_dsl(dsl::Dsl d) {
    custom_dsl = std::move(d);
    return *this;
  }
  JobSpec& with_metric(distance::Metric m) {
    pipeline.synth.metric = m;
    return *this;
  }
  JobSpec& with_timeout(double seconds) {
    pipeline.synth.timeout_s = seconds;
    return *this;
  }
  JobSpec& with_seed(std::uint64_t seed) {
    pipeline.synth.seed = seed;
    return *this;
  }
  JobSpec& with_checkpoint(std::string path, bool resume = false) {
    pipeline.synth.checkpoint_path = std::move(path);
    pipeline.synth.resume = resume;
    return *this;
  }
  JobSpec& with_synthesis_options(synth::SynthesisOptions opts) {
    pipeline.synth = std::move(opts);
    return *this;
  }
  JobSpec& with_repair_traces(bool repair = true) {
    load.repair = repair;
    return *this;
  }
  JobSpec& with_iteration_callback(std::function<void(const synth::IterationReport&)> cb) {
    on_iteration = std::move(cb);
    return *this;
  }
  JobSpec& with_start_callback(std::function<void()> cb) {
    on_start = std::move(cb);
    return *this;
  }
  JobSpec& with_completion_callback(std::function<void(const JobResult&)> cb) {
    on_complete = std::move(cb);
    return *this;
  }
  JobSpec& with_synthesizer(core::Synthesizer s) {
    synthesizer = std::move(s);
    return *this;
  }
  JobSpec& with_kind(Kind k) {
    kind = k;
    return *this;
  }

  // Eager whole-spec validation: trace sources present, options trees valid,
  // DSL names known, segments-mode constraints honored. kInvalidArgument
  // naming the first problem; Engine::submit refuses specs that fail.
  util::Status validate() const;
};

// One point of a job's search-progress curve: the run's best distance after
// `iteration` refinement iterations and the wall-clock spent in the loop up
// to that point. Appended per completed iteration, so plotting Figure-3
// style convergence needs only the run report (ISSUE 5).
struct ConvergencePoint {
  int iteration = 0;  // 0-based refinement iteration index
  double best_distance = std::numeric_limits<double>::infinity();
  double wall_ms = 0.0;
};

// Everything one finished job produced. `status` is the job-level outcome:
// kOk for a completed search, the interrupt class for a preempted one
// (mirroring SynthesisResult::status), or the load/validation error that
// stopped the job before synthesis.
struct JobResult {
  std::string name;
  JobSpec::Kind kind = JobSpec::Kind::kPipeline;
  util::Status status;

  // kPipeline payload.
  core::PipelineResult pipeline;
  // kMister880 payload.
  synth::Mister880Result mister880;
  std::size_t segments_total = 0;

  // Per-job accounting, stable even when jobs share one EvalCache.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double seconds = 0.0;

  // Per-iteration convergence series (kPipeline jobs; empty for kMister880
  // and for jobs that failed before the loop). Rebuilt from the recorded
  // IterationReports at job completion, so checkpoint-restored iterations
  // are included too.
  std::vector<ConvergencePoint> convergence;

  bool ok() const { return status.is_ok(); }
  // Found-a-handler convenience across both kinds.
  bool found() const {
    return kind == JobSpec::Kind::kPipeline ? pipeline.found() : mister880.found();
  }
  // The CLI/run-script exit class for this job (0 ok, 5 timeout, ...).
  int exit_class() const { return util::exit_code(status.code()); }
};

// The job's traces: its trace files, loaded in order with `load`, then its
// in-memory traces. Fails on the first unreadable file, naming it.
util::Result<std::vector<trace::Trace>> load_job_traces(const JobSpec& spec);

// The labels of a job's metric series, the same on every execution path:
// {job=<name>}, plus {cca=<dsl>} when the spec names its DSL.
obs::Labels job_obs_labels(const JobSpec& spec);

}  // namespace abg::api
