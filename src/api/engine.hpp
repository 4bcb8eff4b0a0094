// The batch synthesis engine (ISSUE 4 tentpole). One Engine owns the
// process's synthesis infrastructure — a work-stealing util::ThreadPool, a
// cross-job synth::EvalCache, and the obs metrics registry it reports from —
// and runs any number of submitted jobs against it concurrently:
//
//   api::Engine engine({.threads = 8, .max_concurrent_jobs = 4});
//   auto handle = engine.submit(std::move(spec));      // eager validation
//   if (!handle.ok()) die(handle.status());
//   const api::JobResult& r = handle->wait();
//
// Scheduling model: `max_concurrent_jobs` driver threads pull jobs FIFO from
// the submission queue (a job cancelled while still queued leaves it at
// once and never starts) and run the refinement loop with the shared pool
// injected (SynthesisOptions::pool). Bucket-scoring tasks from all running
// jobs land round-robin on the pool's per-worker deques and idle workers
// steal oldest-first, so a 23-CCA sweep keeps every core busy instead of
// serializing one job's cold start after another; each driver also executes
// its own job's tasks (caller-runs), so a driver can never be starved by its
// peers. Sharing the EvalCache never changes results — entries are exact and
// keyed by (segment-set fingerprint, canonical handler) — it only converts
// repeated evaluations in later jobs into lookups. Every job of an Engine
// shares its cache; jobs that must not share one run on separate Engines.
//
// A job's refinement stage is the spec's `synthesizer` hook: empty runs the
// search on this pool, while dist::Coordinator::synthesizer runs the same
// driver over a worker fleet, so a distributed job gets the same driver
// thread, progress mirror, trace lane and api.* metrics as a local one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/job.hpp"
#include "synth/eval_cache.hpp"
#include "util/cancellation.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"

namespace abg::api {

struct EngineOptions {
  // Size of the shared scoring pool; 0 = hardware concurrency.
  std::size_t threads = 0;
  // Driver threads, i.e. jobs allowed in flight at once; 0 = min(4, pool
  // size). More drivers improve interleaving for many small jobs; fewer keep
  // per-job wall-clock closer to a standalone run.
  std::size_t max_concurrent_jobs = 0;
};

enum class JobState { kQueued, kRunning, kDone };

// "queued" / "running" / "done" — the /jobs JSON spelling.
const char* job_state_name(JobState s);

// Point-in-time view of one job for the live status surface (ISSUE 5).
// Running jobs report the driver's relaxed-atomic progress mirror (updated
// once per refinement iteration); done jobs report their final JobResult, so
// a snapshot taken after wait_all() matches the results exactly.
struct JobSnapshot {
  std::string name;
  JobState state = JobState::kQueued;
  int iterations = 0;               // refinement iterations completed
  int planned_iterations = 0;       // SynthesisOptions::max_iterations budget
  double best_distance = std::numeric_limits<double>::infinity();
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double elapsed_s = 0.0;
  // Naive remaining-time estimate: elapsed/iterations × iterations left.
  // Negative means unknown (queued, no iterations yet, or already done).
  double eta_s = -1.0;
  bool found = false;   // meaningful once state == kDone
  int exit_class = 0;   // meaningful once state == kDone

  double cache_hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

namespace detail {
struct JobInner;
}  // namespace detail

// Future-like view of one submitted job. Cheap to copy (shared ownership of
// the job record); outliving the Engine is safe for reading results, though
// the Engine's destructor already waits for every job to finish.
class JobHandle {
 public:
  JobHandle() = default;  // invalid until assigned from Engine::submit

  bool valid() const { return inner_ != nullptr; }
  const std::string& name() const;
  JobState state() const;

  // Non-blocking: nullptr until the job finishes, then its result.
  const JobResult* poll() const;
  // Block until the job finishes. The reference stays valid as long as any
  // handle to this job exists.
  const JobResult& wait() const;
  // Cancel this job. A queued job leaves the queue and completes before
  // cancel() returns, on this thread, without starting; then cancel()
  // returns true. A running one unwinds cooperatively. Either way the job
  // completes with the given interrupt class and best-so-far results,
  // mirroring a deadline preemption.
  bool cancel(util::StatusCode reason = util::StatusCode::kCancelled) const;

 private:
  friend class Engine;
  explicit JobHandle(std::shared_ptr<detail::JobInner> inner) : inner_(std::move(inner)) {}

  std::shared_ptr<detail::JobInner> inner_;
};

class Engine {
 public:
  explicit Engine(EngineOptions opts = {});
  // Drains: waits for every submitted job to finish (cancel_all() first for
  // a prompt exit), then joins drivers and pool.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Validate the spec eagerly and enqueue it. A spec with an empty name gets
  // "job-<n>". Never blocks on other jobs.
  util::Result<JobHandle> submit(JobSpec spec);

  // All-or-nothing convenience: every spec is validated before any is
  // enqueued, so a bad manifest rejects cleanly instead of half-running.
  util::Result<std::vector<JobHandle>> submit_all(std::vector<JobSpec> specs);

  // Block until every job submitted so far has finished.
  void wait_all();

  // Fire every in-flight and queued job's cancellation token; the queued
  // ones complete before this returns, on this thread, as in
  // JobHandle::cancel.
  void cancel_all(util::StatusCode reason = util::StatusCode::kCancelled);

  // Resolved configuration and shared state (mainly for tests/reports).
  const EngineOptions& options() const { return opts_; }
  util::ThreadPool& pool() { return pool_; }
  synth::EvalCache& eval_cache() { return cache_; }
  std::size_t jobs_submitted() const;
  // Jobs submitted and not yet picked up by a driver.
  std::size_t jobs_queued() const;

  // Finished jobs the Engine keeps listing, the most recently finished
  // ones. A long-lived Engine (abagnale_serve's) then holds O(live jobs)
  // records, not O(jobs served); JobHandles keep their own job alive.
  static constexpr std::size_t kFinishedJobsKept = 64;

  // Live introspection (ISSUE 5): every queued and running job plus the last
  // kFinishedJobsKept finished ones, in submission order. Both walk a
  // copy-on-write published job list — submit() and each job's end
  // republish it under mu_, readers copy one shared_ptr under published_mu_
  // and then touch only per-job atomics — so polling from the status
  // endpoint never takes mu_ and never stalls a driver mid-job.
  std::vector<JobSnapshot> jobs_snapshot() const;
  // The /jobs endpoint body: {"jobs":[{name,state,iterations,...}, ...]}.
  std::string jobs_json() const;

 private:
  friend class JobHandle;

  void driver_loop();
  void run_job(detail::JobInner& job);
  // Take `job` off queue_ and count it active; false when a driver or
  // another cancel got there first.
  bool dequeue(const detail::JobInner& job);
  // Complete a dequeued job that never started with its token's reason.
  void end_unstarted(const std::shared_ptr<detail::JobInner>& job);
  // The end of every job: on_complete, the done latch and the finished
  // window. The job is counted in active_ until this returns.
  void finish_job(const std::shared_ptr<detail::JobInner>& job);
  // Republish jobs_ for the lock-free readers; mu_ held.
  void publish_jobs_locked();

  EngineOptions opts_;  // resolved (threads/max_concurrent_jobs concrete)
  util::ThreadPool pool_;
  synth::EvalCache cache_;

  mutable std::mutex mu_;          // guards queue_, jobs_, counters
  std::condition_variable cv_;     // queue became non-empty / stopping
  std::condition_variable idle_cv_;  // a job finished (wait_all)
  std::deque<std::shared_ptr<detail::JobInner>> queue_;
  // Live jobs and the last kFinishedJobsKept finished ones, in submission
  // order, and those finished ones in completion order.
  std::deque<std::shared_ptr<detail::JobInner>> jobs_;
  std::deque<const detail::JobInner*> finished_;
  // Immutable snapshot of jobs_, republished on every change; the read side
  // of jobs_snapshot()/jobs_json(). published_mu_ guards only the pointer
  // and is held just to copy or swap it. (libstdc++ 12's
  // std::atomic<std::shared_ptr>::load drops its lock bit with a relaxed
  // fetch_sub, so ThreadSanitizer reports a load and a later store from
  // another thread as a race.)
  using JobList = std::vector<std::shared_ptr<detail::JobInner>>;
  mutable std::mutex published_mu_;
  std::shared_ptr<const JobList> published_jobs_;
  std::size_t active_ = 0;
  std::size_t submitted_ = 0;
  bool stop_ = false;

  std::vector<std::thread> drivers_;
};

}  // namespace abg::api
