#include "serve/service.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "api/manifest.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "util/csv.hpp"
#include "util/durable_io.hpp"
#include "util/log.hpp"
#include "util/retry.hpp"

namespace abg::serve {

namespace {

// All error bodies use the one /v1 envelope (obs::error_response). `code` is
// the machine-readable identifier: a util::status_code_name for
// status-derived errors, or a service-level word (rate_limited/queue_full/
// draining/not_found) for admission outcomes.
obs::HttpResponse json_error(int http_code, const std::string& code, const std::string& msg) {
  return obs::error_response(http_code, code, msg);
}

// Status-derived rejection: the envelope code is the taxonomy name
// ("parse-error", "invalid-argument", ...), so clients can branch without
// string-matching the message.
obs::HttpResponse status_error(int http_code, const util::Status& st) {
  return obs::error_response(http_code, util::status_code_name(st.code()), st.to_string());
}

obs::HttpResponse shed(int http_code, const std::string& code, const std::string& msg,
                       double retry_after_s) {
  return obs::error_response(http_code, code, msg, std::max(1.0, retry_after_s));
}

// The result document a client fetches from GET /jobs/<id>/result: the
// batch-report per-job object plus the service's id and the partial tag
// (true when a deadline or cancellation preempted the search and the
// payload is best-so-far rather than a completed run).
std::string job_result_json(const std::string& id, const api::JobResult& r,
                            bool partial) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("partial");
  w.value(partial);
  api::job_result_to_json(w, r);
  w.end_object();
  return w.take();
}

// "/jobs/j-3/result" -> id "j-3", rest "/result". True when the path has an
// id component at all.
bool split_job_path(const std::string& path, std::string* id, std::string* rest) {
  if (path.rfind("/jobs/", 0) != 0) return false;
  const std::string tail = path.substr(6);
  const std::size_t slash = tail.find('/');
  *id = slash == std::string::npos ? tail : tail.substr(0, slash);
  *rest = slash == std::string::npos ? std::string() : tail.substr(slash);
  return !id->empty();
}

}  // namespace

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)), admission_(opts_.admission) {}

Service::~Service() {
  drain_and_stop();
  if (lock_fd_ >= 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
}

util::Status Service::start() {
  if (started_) {
    return util::Status(util::StatusCode::kInvalidArgument, "service already started");
  }
  if (opts_.state_dir.empty()) {
    return util::Status(util::StatusCode::kInvalidArgument, "state_dir required");
  }
  if (::mkdir(opts_.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return util::Status(util::StatusCode::kIoError,
                        "mkdir " + opts_.state_dir + ": " + std::strerror(errno));
  }
  // One daemon per state dir: the WAL is single-writer by construction and
  // flock makes that a hard guarantee rather than a convention.
  const std::string lock_path = opts_.state_dir + "/lock";
  lock_fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    return util::Status(util::StatusCode::kIoError,
                        "open " + lock_path + ": " + std::strerror(errno));
  }
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    return util::Status(util::StatusCode::kInvalidArgument,
                        "state dir " + opts_.state_dir +
                            " is locked by another serve process");
  }

  if (auto st = store_.open(opts_.state_dir); !st.is_ok()) return st;

  // Eager counter creation: a freshly started daemon must expose these at 0
  // so report gates (--require serve.jobs_recovered=1) can bind either way.
  static auto& c_recovered = obs::counter("serve.jobs_recovered");
  obs::counter("serve.submitted");
  obs::counter("serve.shed_queue_full");
  obs::counter("serve.jobs_done");
  obs::counter("serve.jobs_failed");
  obs::counter("serve.jobs_cancelled");
  obs::counter("serve.jobs_suspended");

  engine_ = std::make_unique<api::Engine>(opts_.engine);
  if (!opts_.dist.workers.empty()) {
    coordinator_ = std::make_unique<dist::Coordinator>(opts_.dist);
    ABG_INFO("distributed dispatch: %zu workers attached", opts_.dist.workers.size());
  }

  // Restart recovery: every non-terminal job goes back into the engine; the
  // queue depth bounds new arrivals only, not jobs admitted in a previous
  // life. Whether a job *resumes* (vs restarts) is decided from its
  // checkpoint file alone — WAL progress records are advisory.
  std::lock_guard lk(mu_);
  next_id_ = store_.next_job_number();
  for (const auto& rec : store_.records()) {
    if (job_phase_terminal(rec.phase)) continue;
    c_recovered.add();
    ++jobs_recovered_;
    ABG_INFO("recovered job %s (%s%s)", rec.id.c_str(), job_phase_name(rec.phase),
             job_checkpoint_exists(store_, rec.id) ? ", has checkpoint" : "");
    std::string spec_json;
    util::Status st;
    if (!util::read_file(store_.spec_path(rec.id), &spec_json)) {
      st = util::Status(util::StatusCode::kIoError,
                        "spec file missing: " + store_.spec_path(rec.id));
    } else if (auto parsed = api::parse_job_spec(spec_json); !parsed.ok()) {
      st = parsed.status();
    } else {
      st = submit_locked(rec.id, std::move(*parsed));
    }
    if (!st.is_ok()) (void)store_.record_terminal(rec.id, JobPhase::kFailed, st.to_string(), "");
  }
  started_ = true;
  return util::Status::ok();
}

void Service::mount(obs::StatusServer& server) {
  server.route("POST", "/jobs",
               [this](const obs::HttpRequest& req) { return handle_submit(req); });
  server.route("GET", "/jobs",
               [this](const obs::HttpRequest& req) { return handle_get(req); });
  server.route("DELETE", "/jobs",
               [this](const obs::HttpRequest& req) { return handle_delete(req); });
}

obs::HttpResponse Service::handle_submit(const obs::HttpRequest& req) {
  if (req.path != "/jobs") return json_error(404, "not_found", "POST goes to /jobs");
  if (draining_.load(std::memory_order_acquire)) {
    return shed(503, "draining", "draining: not accepting new jobs", 5.0);
  }
  std::string client = req.header("x-abg-client");
  if (client.empty()) client = "anonymous";

  const AdmissionDecision d = admission_.admit(client);
  if (!d.admitted) {
    return shed(429, "rate_limited", "rate limit for client '" + client + "'",
                d.retry_after_s);
  }

  // An early look, so a full service writes nothing for the request; the
  // check that holds is made again with the submit below.
  static auto& c_shed = obs::counter("serve.shed_queue_full");
  if (const std::size_t backlog = queue_size(); backlog >= opts_.queue_depth) {
    c_shed.add();
    return shed(503, "queue_full",
                "queue full (" + std::to_string(backlog) + " pending)", 2.0);
  }

  if (req.body.empty()) return json_error(400, "bad_request", "empty body");

  std::string id;
  {
    std::lock_guard lk(mu_);
    id = "j-" + std::to_string(next_id_++);
  }

  // Body is either a job-spec JSON object (same keys as a batch-manifest
  // entry) or a raw trace CSV, which becomes a durably-stored trace file
  // plus a default spec pointing at it.
  std::string spec_json;
  const std::size_t first = req.body.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && req.body[first] == '{') {
    spec_json = req.body;
  } else {
    if (auto st = util::atomic_write_file(store_.trace_path(id), req.body,
                                          /*durable=*/true);
        !st.is_ok()) {
      return status_error(500, st);
    }
    obs::JsonWriter w;
    w.begin_object();
    w.key("traces");
    w.begin_array();
    w.value(store_.trace_path(id));
    w.end_array();
    w.end_object();
    spec_json = w.take();
  }

  // Admission-time validation (ISSUE 8): a spec that cannot run is rejected
  // here with the reason, never enqueued to fail later.
  auto parsed = api::parse_job_spec(spec_json);
  if (!parsed.ok()) return status_error(400, parsed.status());
  if (auto st = parsed->validate(); !st.is_ok()) return status_error(400, st);

  if (auto st = store_.record_submit(id, client, spec_json); !st.is_ok()) {
    return status_error(500, st);
  }
  // The depth check and the submit share one hold of mu_, so the bound is
  // hard. A drain sets its flag under mu_ before it cancels the engine's
  // jobs, so a submit racing it is either cancelled and parked with the
  // rest or shed here, never run.
  bool draining = false, full = false;
  util::Status st;
  {
    std::lock_guard lk(mu_);
    draining = draining_.load(std::memory_order_acquire) ||
               abandoned_.load(std::memory_order_acquire);
    full = !draining && engine_->jobs_queued() >= opts_.queue_depth;
    if (!draining && !full) st = submit_locked(id, std::move(*parsed));
  }
  if (draining || full || !st.is_ok()) {
    // Keep the durable state honest about what happened to the job.
    const std::string why = draining ? "draining at enqueue"
                            : full   ? "queue full at enqueue"
                                     : st.to_string();
    (void)store_.record_terminal(id, JobPhase::kFailed, why, "");
    if (draining) return shed(503, "draining", "draining: not accepting new jobs", 5.0);
    if (!full) return status_error(500, st);
    c_shed.add();
    return shed(503, "queue_full", "queue full", 2.0);
  }
  static auto& c_submitted = obs::counter("serve.submitted");
  c_submitted.add();

  obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("state");
  w.value("queued");
  w.end_object();
  return obs::HttpResponse::json(202, w.take());
}

obs::HttpResponse Service::handle_get(const obs::HttpRequest& req) {
  if (req.path == "/jobs" || req.path == "/jobs/") {
    return obs::HttpResponse::json(200, jobs_list_json());
  }
  std::string id, rest;
  if (!split_job_path(req.path, &id, &rest)) return json_error(404, "not_found", "not found");
  JobRecord rec;
  if (!store_.lookup(id, &rec)) return json_error(404, "not_found", "unknown job " + id);

  if (rest == "/result") {
    if (!job_phase_terminal(rec.phase)) {
      obs::JsonWriter w;
      w.begin_object();
      w.key("id");
      w.value(id);
      w.key("state");
      w.value(job_phase_name(rec.phase));
      w.end_object();
      return obs::HttpResponse::json(202, w.take());
    }
    std::string result;
    if (util::read_file(store_.result_path(id), &result)) {
      return obs::HttpResponse::json(200, result);
    }
    // Terminal without a result file: the job ended before it reached the
    // engine.
    obs::JsonWriter w;
    w.begin_object();
    w.key("id");
    w.value(id);
    w.key("state");
    w.value(job_phase_name(rec.phase));
    if (!rec.error.empty()) {
      w.key("error");
      w.value(rec.error);
    }
    w.end_object();
    return obs::HttpResponse::json(200, w.take());
  }
  if (!rest.empty()) return json_error(404, "not_found", "not found");

  obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("client");
  w.value(rec.client);
  w.key("state");
  w.value(job_phase_name(rec.phase));
  w.key("iterations");
  w.value(static_cast<std::int64_t>(rec.iterations));
  if (!rec.error.empty()) {
    w.key("error");
    w.value(rec.error);
  }
  w.end_object();
  return obs::HttpResponse::json(200, w.take());
}

obs::HttpResponse Service::handle_delete(const obs::HttpRequest& req) {
  std::string id, rest;
  if (!split_job_path(req.path, &id, &rest) || !rest.empty()) {
    return json_error(404, "not_found", "DELETE goes to /jobs/<id>");
  }
  JobRecord rec;
  if (!store_.lookup(id, &rec)) return json_error(404, "not_found", "unknown job " + id);
  api::JobHandle handle;
  {
    std::lock_guard lk(mu_);
    const auto it = handles_.find(id);
    if (it != handles_.end()) handle = it->second;
  }
  // Terminal, or parked by a drain: nothing left to cancel.
  if (!handle.valid() || job_phase_terminal(rec.phase)) {
    return json_error(409, "conflict", "job " + id + " is " + job_phase_name(rec.phase));
  }
  // A queued job ends inside cancel(), on this thread, and on_job_complete
  // has recorded how; a running one unwinds on its driver.
  const bool ended = handle.cancel();
  if (ended) store_.lookup(id, &rec);

  obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("state");
  w.value(ended ? job_phase_name(rec.phase) : "cancelling");
  w.end_object();
  return obs::HttpResponse::json(ended ? 200 : 202, w.take());
}

std::string Service::jobs_list_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("draining");
  w.value(draining_.load(std::memory_order_acquire));
  w.key("queue_size");
  w.value(static_cast<std::uint64_t>(queue_size()));
  w.key("queue_capacity");
  w.value(static_cast<std::uint64_t>(opts_.queue_depth));
  w.key("jobs");
  w.begin_array();
  for (const auto& rec : store_.records()) {
    w.begin_object();
    w.key("id");
    w.value(rec.id);
    w.key("client");
    w.value(rec.client);
    w.key("state");
    w.value(job_phase_name(rec.phase));
    w.key("iterations");
    w.value(static_cast<std::int64_t>(rec.iterations));
    if (!rec.error.empty()) {
      w.key("error");
      w.value(rec.error);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

util::Status Service::submit_locked(const std::string& id, api::JobSpec spec) {
  spec.name = id;
  if (opts_.max_job_timeout_s > 0 &&
      !(spec.pipeline.synth.timeout_s <= opts_.max_job_timeout_s)) {
    spec.pipeline.synth.timeout_s = opts_.max_job_timeout_s;
  }
  // Checkpoint into the state dir every iteration; resume iff a checkpoint
  // survives from a previous life of this job. The checkpoint machinery
  // self-validates (pool fingerprint + seed), so a stale file from an edited
  // spec falls back to a fresh run rather than resuming wrongly.
  spec.with_checkpoint(store_.checkpoint_path(id),
                       /*resume=*/job_checkpoint_exists(store_, id));
  auto iters = std::make_shared<std::atomic<int>>(0);
  spec.with_iteration_callback([this, id, iters](const synth::IterationReport&) {
    const int n = iters->fetch_add(1, std::memory_order_relaxed) + 1;
    (void)store_.record_progress(id, n);
  });
  spec.with_start_callback([this, id] {
    if (auto st = store_.record_running(id); !st.is_ok()) {
      ABG_WARN("job %s: running record failed: %s", id.c_str(), st.to_string().c_str());
    }
  });
  // A fleet job is an engine job whose refinement passes run on the workers.
  if (coordinator_ && dist::spec_is_distributable(spec)) {
    spec.with_synthesizer(coordinator_->synthesizer(spec));
  }
  spec.with_completion_callback(
      [this, id](const api::JobResult& r) { on_job_complete(id, r); });
  auto handle = engine_->submit(std::move(spec));
  if (!handle.ok()) return handle.status();
  // on_job_complete erases this entry under mu_, which the caller holds
  // until it is in.
  handles_[id] = std::move(*handle);
  return util::Status::ok();
}

void Service::on_job_complete(const std::string& id, const api::JobResult& r) {
  if (!abandoned_.load(std::memory_order_acquire)) {
    const bool drain_park = draining_.load(std::memory_order_acquire) &&
                            r.status.code() == util::StatusCode::kCancelled;
    // Terminal records are worth a few retries: losing one means a finished
    // job reruns from its checkpoint after the next restart — correct but
    // wasteful — so transient I/O hiccups should not be allowed to decide.
    util::Retry retry({.max_attempts = 3, .initial_backoff_s = 0.01});
    if (drain_park) {
      static auto& c_suspended = obs::counter("serve.jobs_suspended");
      const auto st = retry.run([&] { return store_.record_suspended(id); });
      if (st.is_ok()) c_suspended.add();
    } else {
      JobPhase phase;
      bool partial = false;
      switch (r.status.code()) {
        case util::StatusCode::kOk:
          phase = JobPhase::kDone;
          break;
        case util::StatusCode::kTimeout:
          // Deadline expiry is a *result*, not a failure: the watchdog
          // preempted cooperatively and the payload is best-so-far.
          phase = JobPhase::kDone;
          partial = true;
          break;
        case util::StatusCode::kCancelled:
          phase = JobPhase::kCancelled;
          partial = true;
          break;
        default:
          phase = JobPhase::kFailed;
          break;
      }
      const std::string result = job_result_json(id, r, partial);
      const std::string error =
          phase == JobPhase::kFailed ? r.status.to_string() : std::string();
      const auto st =
          retry.run([&] { return store_.record_terminal(id, phase, error, result); });
      if (!st.is_ok()) {
        ABG_WARN("job %s: terminal record failed: %s", id.c_str(),
                 st.to_string().c_str());
      } else {
        static auto& c_done = obs::counter("serve.jobs_done");
        static auto& c_failed = obs::counter("serve.jobs_failed");
        static auto& c_cancelled = obs::counter("serve.jobs_cancelled");
        (phase == JobPhase::kDone ? c_done
         : phase == JobPhase::kFailed ? c_failed
                                      : c_cancelled)
            .add();
      }
    }
  }
  std::lock_guard lk(mu_);
  handles_.erase(id);
}

void Service::drain_and_stop() {
  // Every job parks via on_complete: kCancelled while draining becomes a
  // suspended record.
  stop(draining_);
}

void Service::abandon_for_test() {
  // Kill -9 semantics: no suspended/terminal records, no compaction — the
  // WAL freezes exactly as it was. Cancellation only speeds up the teardown;
  // because `abandoned_` is set first, on_job_complete records nothing.
  stop(abandoned_);
}

void Service::stop(std::atomic<bool>& flag) {
  if (!started_ || stopped_) return;
  std::size_t jobs = 0;
  {
    std::lock_guard lk(mu_);
    flag.store(true, std::memory_order_release);
    jobs = handles_.size();
  }
  ABG_INFO("admissions closed, ending %zu queued and running jobs", jobs);
  // Queued jobs end inside cancel_all, on this thread; running ones unwind
  // on their drivers. The engine itself lives on, idle, until ~Service, so
  // queue_size() never reads a dead one.
  engine_->cancel_all();
  engine_->wait_all();
  store_.close();  // WAL fsync'd per record; close releases the fd
  if (lock_fd_ >= 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
  stopped_ = true;
}

}  // namespace abg::serve
