// The crash-durable synthesis service (ISSUE 8 tentpole). One Service owns
// the persistent JobStore (WAL + per-job spec/result/checkpoint files under
// --state-dir), the per-client token-bucket AdmissionController, and an
// api::Engine; mount() attaches its HTTP API to an obs::StatusServer:
//
//   POST   /jobs               submit (JSON job-spec body, same keys as a
//                              batch-manifest entry, or a raw trace CSV) ->
//                              202 {"id":"j-3","state":"queued"};
//                              400 bad spec, 429 rate-limited, 503 queue
//                              full or draining (both with Retry-After)
//   GET    /jobs               durable job table + queue/drain status
//   GET    /jobs/<id>          one job's state
//   GET    /jobs/<id>/result   result JSON once terminal (202 while running)
//   DELETE /jobs/<id>          cancel: 200 "cancelled" for a queued job,
//                              202 "cancelling" for a running one
//
// There is one job queue, the Engine's: an admitted job is submitted to the
// Engine at once, and --queue-depth bounds the jobs waiting there for a
// driver. A queued job that is cancelled leaves that queue and ends before
// DELETE answers, without ever starting.
//
// Durability contract: every acknowledged state transition is an fsync'd WAL
// record, and bulky payloads (spec, result) hit disk durably *before* the
// record naming them. Running jobs checkpoint each refinement iteration into
// the state dir via the synth/checkpoint machinery, so kill -9 at any point
// loses at most the in-flight iteration: restart with the same --state-dir
// requeues every non-terminal job ("serve.jobs_recovered" counts them) and
// resumes from the last checkpoint bit-exactly.
//
// Job deadlines ride the existing per-run watchdog: a spec's timeout_s is
// enforced by synth's DeadlineWatchdog, and an expired job lands as a
// *done* result tagged "partial": true carrying the best-so-far handler.
//
// Graceful drain (SIGTERM in the daemon): stop admitting, cancel every job
// in the Engine and park each with a non-terminal "suspended" record
// (running ones unwind cooperatively and keep their checkpoints), flush the
// WAL, and return — the next start on the same state dir picks them all
// back up.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "api/engine.hpp"
#include "dist/coordinator.hpp"
#include "obs/status_server.hpp"
#include "serve/admission.hpp"
#include "serve/job_store.hpp"
#include "util/status.hpp"

namespace abg::serve {

struct ServiceOptions {
  std::string state_dir;
  std::size_t queue_depth = 16;   // admitted jobs waiting for a driver
  AdmissionOptions admission;
  api::EngineOptions engine;
  // >0 clamps every job's timeout_s (a service should not let one client
  // park a driver thread for an unbounded run).
  double max_job_timeout_s = 0.0;
  // Non-empty dist.workers turns on distributed dispatch: jobs that
  // dist::spec_is_distributable accepts still run on the engine, but their
  // refinement passes go to this worker fleet (dist::Coordinator::synthesizer).
  // Queueing, WAL records, checkpoints, cancel and metrics are the same.
  dist::CoordinatorOptions dist;
};

class Service {
 public:
  explicit Service(ServiceOptions opts);
  ~Service();  // drains if still running

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Lock the state dir (kInvalidArgument when another daemon holds it),
  // recover the job table from the WAL, start the engine and submit the
  // non-terminal jobs to it again. Idempotent-hostile: call once.
  util::Status start();

  // Register the /jobs HTTP surface on `server`. Call between start() and
  // server.start().
  void mount(obs::StatusServer& server);

  // Graceful drain: see header comment. Blocks until everything is parked
  // and the WAL is flushed. Safe to call twice.
  void drain_and_stop();

  // Crash simulation for the chaos suite: tear down *without* writing any
  // terminal or suspended records — from the WAL's point of view this is
  // kill -9 (running jobs stay "running", queued stay "queued"), except the
  // process survives to build a second Service on the same state dir.
  void abandon_for_test();

  // Introspection (used by the daemon and tests).
  std::size_t queue_size() const { return engine_ ? engine_->jobs_queued() : 0; }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  std::uint64_t jobs_recovered() const { return jobs_recovered_; }
  JobStore& store() { return store_; }

  // HTTP handlers (public so tests can drive them without sockets).
  obs::HttpResponse handle_submit(const obs::HttpRequest& req);
  obs::HttpResponse handle_get(const obs::HttpRequest& req);
  obs::HttpResponse handle_delete(const obs::HttpRequest& req);

 private:
  // Hook job `id` up to the service (its name, the clamped timeout, a
  // checkpoint in the state dir, WAL records of its start, progress and end,
  // the fleet) and submit it to the engine. mu_ held.
  util::Status submit_locked(const std::string& id, api::JobSpec spec);
  void on_job_complete(const std::string& id, const api::JobResult& r);
  // Shared end of drain_and_stop and abandon_for_test: set `flag` (closing
  // admissions), cancel the engine's jobs, wait for them, close the store.
  void stop(std::atomic<bool>& flag);
  std::string jobs_list_json() const;

  ServiceOptions opts_;
  JobStore store_;
  AdmissionController admission_;
  std::unique_ptr<api::Engine> engine_;
  std::unique_ptr<dist::Coordinator> coordinator_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> abandoned_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t jobs_recovered_ = 0;
  int lock_fd_ = -1;

  // Guards the fields below; draining_ and abandoned_ are set under it, so
  // a submit either reaches the engine before stop() cancels it or sees
  // the flag and sheds.
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::map<std::string, api::JobHandle> handles_;  // jobs in the engine
};

}  // namespace abg::serve
