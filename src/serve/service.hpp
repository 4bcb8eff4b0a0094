// The crash-durable synthesis service (ISSUE 8 tentpole). One Service owns
// the persistent JobStore (WAL + per-job spec/result/checkpoint files under
// --state-dir), the bounded PendingQueue, the per-client token-bucket
// AdmissionController, and an api::Engine; mount() attaches its HTTP API to
// an obs::StatusServer:
//
//   POST   /jobs               submit (JSON job-spec body, same keys as a
//                              batch-manifest entry, or a raw trace CSV) ->
//                              202 {"id":"j-3","state":"queued"};
//                              400 bad spec, 429 rate-limited, 503 queue
//                              full or draining (both with Retry-After)
//   GET    /jobs               durable job table + queue/drain status
//   GET    /jobs/<id>          one job's state
//   GET    /jobs/<id>/result   result JSON once terminal (202 while running)
//   DELETE /jobs/<id>          cancel (queued or running)
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
// Graceful drain (SIGTERM in the daemon): stop admitting, park queued and
// running jobs with non-terminal "suspended" records (running ones are
// cooperatively cancelled and keep their checkpoints), flush the WAL, and
// return — the next start on the same state dir picks them all back up.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "api/engine.hpp"
#include "dist/coordinator.hpp"
#include "obs/status_server.hpp"
#include "serve/admission.hpp"
#include "serve/job_store.hpp"
#include "serve/queue.hpp"
#include "util/status.hpp"

namespace abg::serve {

struct ServiceOptions {
  std::string state_dir;
  std::size_t queue_depth = 16;   // pending (not-yet-running) jobs held
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
  // recover the job table from the WAL, requeue non-terminal jobs, start
  // the engine and dispatcher. Idempotent-hostile: call once.
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
  std::size_t queue_size() const { return pending_.size(); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  std::uint64_t jobs_recovered() const { return jobs_recovered_; }
  JobStore& store() { return store_; }

  // HTTP handlers (public so tests can drive them without sockets).
  obs::HttpResponse handle_submit(const obs::HttpRequest& req);
  obs::HttpResponse handle_get(const obs::HttpRequest& req);
  obs::HttpResponse handle_delete(const obs::HttpRequest& req);

 private:
  void dispatcher_loop();
  void dispatch_one(const std::string& id);
  void on_job_complete(const std::string& id, const api::JobResult& r);
  // Shared end of drain_and_stop and abandon_for_test: close the queue, join
  // the dispatcher, cancel and join the engine's jobs, close the store.
  void teardown();
  std::string jobs_list_json() const;

  ServiceOptions opts_;
  JobStore store_;
  PendingQueue pending_;
  AdmissionController admission_;
  std::unique_ptr<api::Engine> engine_;
  std::unique_ptr<dist::Coordinator> coordinator_;

  std::thread dispatcher_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> abandoned_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t jobs_recovered_ = 0;
  int lock_fd_ = -1;

  mutable std::mutex mu_;            // guards the fields below
  std::condition_variable slot_cv_;  // a driver slot freed / draining began
  std::size_t active_jobs_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::string, api::JobHandle> handles_;  // running jobs
  std::set<std::string> cancel_requested_;  // cancel raced dispatch
};

}  // namespace abg::serve
