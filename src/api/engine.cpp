#include "api/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "api/version.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/trace_events.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace abg::api {

namespace detail {

// One submitted job's full record: spec in, result out, plus the done latch
// and the cancellation token the engine threads through the synthesis loop.
struct JobInner {
  JobInner(JobSpec s, Engine* e)
      : spec(std::move(s)), token(spec.pipeline.synth.cancel), engine(e) {}

  JobSpec spec;
  JobResult result;
  // Parent-linked to any caller-supplied token in the spec, so both the
  // engine (cancel_all, handle.cancel) and the embedding application can
  // preempt the job; the caller's token must outlive the run, as documented
  // on SynthesisOptions::cancel.
  util::CancellationToken token;
  // Alive while !done: ~Engine waits for every job it holds.
  Engine* const engine;

  std::atomic<JobState> state{JobState::kQueued};
  std::mutex mu;  // guards done; held by cancel() while it reaches the engine
  std::condition_variable cv;
  bool done = false;

  // Live progress mirror (ISSUE 5): written by the driver thread once per
  // refinement iteration with relaxed stores, read lock-free by
  // Engine::jobs_snapshot(). Each field is independently atomic — a reader
  // may see iteration N's count with iteration N-1's distance, which is fine
  // for a monitoring surface; the authoritative record is JobResult.
  struct Progress {
    std::atomic<int> iterations{0};
    std::atomic<double> best_distance{std::numeric_limits<double>::infinity()};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> cache_misses{0};
    std::atomic<double> elapsed_s{0.0};
  };
  Progress progress;

  // Once the job has ended nothing reads its inputs or callbacks again, but a
  // handle or the finished-jobs list may pin this record for long after, so
  // they go now (the §6.1 segment pool alone is 2.6 MB). Keeps what
  // jobs_snapshot() and JobHandle::name() read.
  void release_inputs() {
    std::exchange(spec.traces, {});
    std::exchange(spec.segments, {});
    spec.on_iteration = nullptr;
    spec.on_start = nullptr;
    spec.on_complete = nullptr;
    spec.synthesizer = nullptr;
  }
};

}  // namespace detail

// --- JobSpec validation ------------------------------------------------------

util::Status JobSpec::validate() const {
  auto bad = [](const std::string& msg) {
    return util::Status(util::StatusCode::kInvalidArgument, msg);
  };
  const bool has_traces = !trace_paths.empty() || !traces.empty();
  if (!has_traces && segments.empty()) {
    return bad("job has no input: add trace paths, traces, or segments");
  }
  if (!segments.empty() && has_traces) {
    return bad("pre-segmented input and raw traces are mutually exclusive");
  }
  for (const auto& p : trace_paths) {
    if (p.empty()) return bad("empty trace path");
  }
  const bool has_dsl = custom_dsl.has_value() || pipeline.dsl_override.has_value();
  if (!segments.empty() && !has_dsl) {
    return bad("pre-segmented input needs an explicit DSL (there is nothing to classify)");
  }
  if (custom_dsl && custom_dsl->name.empty()) return bad("custom_dsl has no name");
  if (auto st = pipeline.validate(); !st.is_ok()) return st.with_context("pipeline");
  if (kind == Kind::kMister880) {
    if (!has_dsl) return bad("mister880 jobs need an explicit DSL");
    if (auto st = mister880.validate(); !st.is_ok()) return st.with_context("mister880");
  }
  return util::Status::ok();
}

util::Result<std::vector<trace::Trace>> load_job_traces(const JobSpec& spec) {
  std::vector<trace::Trace> traces;
  for (const auto& path : spec.trace_paths) {
    auto t = trace::load_csv(path, spec.load);
    if (!t.ok()) return t.status().with_context(path);
    traces.push_back(std::move(*t));
  }
  traces.insert(traces.end(), spec.traces.begin(), spec.traces.end());
  return traces;
}

obs::Labels job_obs_labels(const JobSpec& spec) {
  obs::Labels labels{{"job", spec.name}};
  if (spec.custom_dsl) {
    labels.emplace_back("cca", spec.custom_dsl->name);
  } else if (spec.pipeline.dsl_override) {
    labels.emplace_back("cca", *spec.pipeline.dsl_override);
  }
  return labels;
}

namespace {

// Fill a finished pipeline job's summary (status, segment and cache totals,
// convergence series) from out->pipeline.
void summarize_pipeline(JobResult* out) {
  const synth::SynthesisResult& synthesis = out->pipeline.synthesis;
  out->segments_total = out->pipeline.segments_total;
  out->status = synthesis.status;
  out->cache_hits = synthesis.cache_hits;
  out->cache_misses = synthesis.cache_misses;
  // Rebuilt from the recorded iteration reports rather than the streamed
  // callbacks, so checkpoint-restored iterations (which are not replayed
  // through on_iteration) are included and the series always matches the
  // final SynthesisResult.
  out->convergence.clear();
  out->convergence.reserve(synthesis.iterations.size());
  double wall_ms = 0.0;
  for (std::size_t i = 0; i < synthesis.iterations.size(); ++i) {
    wall_ms += synthesis.iterations[i].seconds * 1000.0;
    out->convergence.push_back(
        {static_cast<int>(i), synthesis.iterations[i].best_distance, wall_ms});
  }
}

}  // namespace

// --- JobHandle ---------------------------------------------------------------

const std::string& JobHandle::name() const { return inner_->result.name; }

JobState JobHandle::state() const { return inner_->state.load(std::memory_order_acquire); }

const JobResult* JobHandle::poll() const {
  if (!inner_ || inner_->state.load(std::memory_order_acquire) != JobState::kDone) {
    return nullptr;
  }
  return &inner_->result;
}

const JobResult& JobHandle::wait() const {
  std::unique_lock lk(inner_->mu);
  inner_->cv.wait(lk, [&] { return inner_->done; });
  return inner_->result;
}

bool JobHandle::cancel(util::StatusCode reason) const {
  if (!inner_) return false;
  inner_->token.cancel(reason);
  bool queued = false;
  {
    // A job not yet done pins its engine, and finish_job sets done under
    // this lock, so the engine outlives the dequeue.
    std::lock_guard lk(inner_->mu);
    queued = !inner_->done && inner_->engine->dequeue(*inner_);
  }
  // Dequeued, the job counts as active, so the engine stays up until it ends.
  if (queued) inner_->engine->end_unstarted(inner_);
  return queued;
}

// --- Engine ------------------------------------------------------------------

Engine::Engine(EngineOptions opts) : opts_([&] {
      EngineOptions resolved = opts;
      if (resolved.threads == 0) {
        resolved.threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
      }
      if (resolved.max_concurrent_jobs == 0) {
        resolved.max_concurrent_jobs = std::min<std::size_t>(4, resolved.threads);
      }
      return resolved;
    }()),
    pool_(opts_.threads) {
  // Every metrics/report snapshot taken while an Engine exists names the API
  // surface it was produced under, so abg_report comparisons across versions
  // fail loudly instead of silently diffing incompatible runs.
  obs::set_report_meta("api_version", ABG_API_VERSION);
  drivers_.reserve(opts_.max_concurrent_jobs);
  for (std::size_t i = 0; i < opts_.max_concurrent_jobs; ++i) {
    drivers_.emplace_back([this] { driver_loop(); });
  }
}

Engine::~Engine() {
  wait_all();
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& d : drivers_) d.join();
}

util::Result<JobHandle> Engine::submit(JobSpec spec) {
  if (auto st = spec.validate(); !st.is_ok()) {
    return st.with_context(spec.name.empty() ? std::string("job") : "job '" + spec.name + "'");
  }
  auto inner = std::make_shared<detail::JobInner>(std::move(spec), this);
  {
    std::lock_guard lk(mu_);
    ++submitted_;
    if (inner->spec.name.empty()) inner->spec.name = "job-" + std::to_string(submitted_);
    inner->result.name = inner->spec.name;
    inner->result.kind = inner->spec.kind;
    queue_.push_back(inner);
    jobs_.push_back(inner);
    publish_jobs_locked();
  }
  static auto& c_submitted = obs::counter("api.jobs_submitted");
  c_submitted.add();
  cv_.notify_one();
  return JobHandle(std::move(inner));
}

util::Result<std::vector<JobHandle>> Engine::submit_all(std::vector<JobSpec> specs) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (auto st = specs[i].validate(); !st.is_ok()) {
      return st.with_context("manifest job " + std::to_string(i + 1) +
                             (specs[i].name.empty() ? "" : " ('" + specs[i].name + "')"));
    }
  }
  std::vector<JobHandle> handles;
  handles.reserve(specs.size());
  for (auto& spec : specs) {
    auto h = submit(std::move(spec));
    if (!h.ok()) return h.status();  // unreachable: validated above
    handles.push_back(std::move(*h));
  }
  return handles;
}

void Engine::publish_jobs_locked() {
  // A copy of at most the live jobs plus kFinishedJobsKept shared_ptrs.
  auto list = std::make_shared<const JobList>(jobs_.begin(), jobs_.end());
  std::lock_guard lk(published_mu_);
  published_jobs_.swap(list);
}

void Engine::wait_all() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [&] { return queue_.empty() && active_ == 0; });
}

void Engine::cancel_all(util::StatusCode reason) {
  std::deque<std::shared_ptr<detail::JobInner>> unstarted;
  {
    std::lock_guard lk(mu_);
    for (auto& j : jobs_) j->token.cancel(reason);
    unstarted.swap(queue_);
    active_ += unstarted.size();
  }
  for (const auto& j : unstarted) end_unstarted(j);
}

bool Engine::dequeue(const detail::JobInner& job) {
  std::lock_guard lk(mu_);
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&job](const auto& j) { return j.get() == &job; });
  if (it == queue_.end()) return false;
  queue_.erase(it);
  ++active_;
  return true;
}

std::size_t Engine::jobs_submitted() const {
  std::lock_guard lk(mu_);
  return submitted_;
}

std::size_t Engine::jobs_queued() const {
  std::lock_guard lk(mu_);
  return queue_.size();
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
  }
  return "unknown";
}

std::vector<JobSnapshot> Engine::jobs_snapshot() const {
  std::shared_ptr<const JobList> list;
  {
    std::lock_guard lk(published_mu_);
    list = published_jobs_;
  }
  std::vector<JobSnapshot> out;
  if (!list) return out;
  out.reserve(list->size());
  for (const auto& j : *list) {
    JobSnapshot s;
    s.name = j->result.name;  // fixed at submit, immutable afterwards
    s.state = j->state.load(std::memory_order_acquire);
    s.planned_iterations = j->spec.pipeline.synth.max_iterations;
    if (s.state == JobState::kDone) {
      // The kDone release store publishes the finished JobResult.
      const JobResult& r = j->result;
      s.iterations = static_cast<int>(r.convergence.size());
      if (!r.convergence.empty()) s.best_distance = r.convergence.back().best_distance;
      if (r.kind == JobSpec::Kind::kPipeline && r.pipeline.found()) {
        s.best_distance = r.pipeline.synthesis.best.distance;
      }
      s.cache_hits = r.cache_hits;
      s.cache_misses = r.cache_misses;
      s.elapsed_s = r.seconds;
      s.found = r.found();
      s.exit_class = r.exit_class();
    } else if (s.state == JobState::kRunning) {
      const auto& p = j->progress;
      s.iterations = p.iterations.load(std::memory_order_relaxed);
      s.best_distance = p.best_distance.load(std::memory_order_relaxed);
      s.cache_hits = p.cache_hits.load(std::memory_order_relaxed);
      s.cache_misses = p.cache_misses.load(std::memory_order_relaxed);
      s.elapsed_s = p.elapsed_s.load(std::memory_order_relaxed);
      if (s.iterations > 0 && s.planned_iterations > s.iterations && s.elapsed_s > 0) {
        s.eta_s = s.elapsed_s / s.iterations * (s.planned_iterations - s.iterations);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string Engine::jobs_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("jobs");
  w.begin_array();
  for (const auto& s : jobs_snapshot()) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("state");
    w.value(job_state_name(s.state));
    w.key("iterations");
    w.value(static_cast<std::int64_t>(s.iterations));
    w.key("planned_iterations");
    w.value(static_cast<std::int64_t>(s.planned_iterations));
    w.key("best_distance");
    w.value(s.best_distance);  // +inf (no candidate yet) renders as null
    w.key("cache_hits");
    w.value(static_cast<std::uint64_t>(s.cache_hits));
    w.key("cache_misses");
    w.value(static_cast<std::uint64_t>(s.cache_misses));
    w.key("cache_hit_rate");
    w.value(s.cache_hit_rate());
    w.key("elapsed_s");
    w.value(s.elapsed_s);
    w.key("eta_s");
    w.value(s.eta_s);  // negative = unknown
    w.key("found");
    w.value(s.found);
    w.key("exit_class");
    w.value(static_cast<std::int64_t>(s.exit_class));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void Engine::driver_loop() {
  for (;;) {
    std::shared_ptr<detail::JobInner> job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = queue_.front();
      queue_.pop_front();
      ++active_;
    }
    // A token that fired while the job was queued (a parent token in the
    // spec) ends it here, as if it had been cancelled in the queue.
    if (job->token.cancelled()) {
      end_unstarted(job);
      continue;
    }
    job->state.store(JobState::kRunning, std::memory_order_release);
    if (job->spec.on_start) job->spec.on_start();
    run_job(*job);
    finish_job(job);
  }
}

void Engine::end_unstarted(const std::shared_ptr<detail::JobInner>& job) {
  const util::StatusCode reason = job->token.reason();
  JobResult& out = job->result;
  out.status = util::Status(reason, "job cancelled before it started");
  if (out.kind == JobSpec::Kind::kPipeline) {
    // The shape of a search interrupted before its first pass.
    out.pipeline.synthesis.partial = true;
    out.pipeline.synthesis.timed_out = reason == util::StatusCode::kTimeout;
    out.pipeline.synthesis.status = out.status;
  }
  finish_job(job);
}

void Engine::finish_job(const std::shared_ptr<detail::JobInner>& job) {
  static auto& c_completed = obs::counter("api.jobs_completed");
  c_completed.add();
  // Terminal callback fires before the done latch / kDone store, so a
  // waiter released by wait() can rely on its side effects (the serve
  // layer's durable WAL record + result file) already being on disk.
  if (job->spec.on_complete) job->spec.on_complete(job->result);
  job->release_inputs();
  {
    std::lock_guard lk(job->mu);
    job->done = true;
  }
  job->state.store(JobState::kDone, std::memory_order_release);
  job->cv.notify_all();
  {
    std::lock_guard lk(mu_);
    --active_;
    // Keep listing the last kFinishedJobsKept finished jobs.
    finished_.push_back(job.get());
    if (finished_.size() > kFinishedJobsKept) {
      const detail::JobInner* oldest = finished_.front();
      finished_.pop_front();
      jobs_.erase(std::find_if(jobs_.begin(), jobs_.end(),
                               [oldest](const auto& j) { return j.get() == oldest; }));
    }
    publish_jobs_locked();
  }
  idle_cv_.notify_all();
}

void Engine::run_job(detail::JobInner& job) {
  util::Stopwatch clock;
  // Give the job its own trace lane: every span opened while this driver (or
  // a pool worker running this job's stolen tasks) is inside the job carries
  // the lane's pid, so the exported trace renders one Perfetto track per job
  // instead of one interleaved process soup.
  const std::uint32_t lane =
      obs::tracing_enabled() ? obs::register_lane("job " + job.spec.name) : 0;
  obs::ContextScope lane_scope(obs::SpanContext{lane, 0});
  obs::Span span("api.job " + job.spec.name, "api");
  JobResult& out = job.result;

  // Inject the shared infrastructure. The spec's own options stay authoritative
  // for everything that affects the search result; only the executor, memo
  // cache, cancellation, and progress plumbing are engine-provided.
  core::PipelineOptions popts = job.spec.pipeline;
  popts.synth.pool = &pool_;
  popts.synth.shared_cache = popts.synth.use_eval_cache ? &cache_ : nullptr;
  popts.synth.cancel = &job.token;

  // Labeled metric series for this run. The synth layer appends the
  // per-bucket label itself.
  const obs::Labels job_labels = job_obs_labels(job.spec);
  popts.synth.obs_labels = job_labels;

  // Interpose on the per-iteration stream to keep the lock-free progress
  // mirror current, then forward to any caller-supplied callback. Runs on
  // this driver thread, so `job` and `clock` comfortably outlive it.
  const auto user_cb = job.spec.on_iteration;
  popts.synth.on_iteration = [&job, &clock, user_cb](const synth::IterationReport& rep) {
    auto& p = job.progress;
    p.iterations.fetch_add(1, std::memory_order_relaxed);
    p.best_distance.store(rep.best_distance, std::memory_order_relaxed);
    p.cache_hits.store(rep.cache_hits, std::memory_order_relaxed);
    p.cache_misses.store(rep.cache_misses, std::memory_order_relaxed);
    p.elapsed_s.store(clock.elapsed_seconds(), std::memory_order_relaxed);
    if (user_cb) user_cb(rep);
  };

  auto traces = load_job_traces(job.spec);
  if (!traces.ok()) {
    // A batch manifest must not silently shrink its inputs: one bad file
    // fails this job (and only this job).
    out.status = traces.status();
    out.seconds = clock.elapsed_seconds();
    return;
  }

  // An explicit search space — the mister880 baseline, pre-segmented input,
  // or a custom DSL — skips classification and searches this pool directly.
  const bool pre_segmented = !job.spec.segments.empty();
  if (job.spec.kind == JobSpec::Kind::kMister880 || pre_segmented || job.spec.custom_dsl) {
    const dsl::Dsl d =
        job.spec.custom_dsl ? *job.spec.custom_dsl : dsl::dsl_by_name(*popts.dsl_override);
    std::vector<trace::Segment> built;
    if (!pre_segmented) built = core::build_segment_pool(*traces, popts);
    const std::vector<trace::Segment>& segments = pre_segmented ? job.spec.segments : built;
    if (job.spec.kind == JobSpec::Kind::kMister880) {
      out.segments_total = segments.size();
      out.mister880 = synth::mister880_synthesize(d, segments, job.spec.mister880);
    } else {
      out.pipeline.dsl_name = d.name;
      out.pipeline.segments_total = segments.size();
      out.pipeline.synthesis = synth::synthesize(d, segments, popts.synth);
    }
  } else {
    out.pipeline = core::Abagnale(popts).run(*traces, job.spec.synthesizer);
  }
  if (job.spec.kind == JobSpec::Kind::kPipeline) summarize_pipeline(&out);
  out.seconds = clock.elapsed_seconds();

  obs::gauge("api.job.seconds", job_labels).set(out.seconds);
}

}  // namespace abg::api
