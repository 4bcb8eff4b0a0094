// The worker half of distributed refinement search (ISSUE 9). One Worker
// owns a synth::ShardEngine for its assigned buckets and exposes it over the
// StatusServer's HTTP plumbing, at /v1/shard/* (the coordinator's spelling;
// the unversioned /shard/* alias answers with a Deprecation header and
// counts into http.deprecated_requests):
//
//   POST /shard/load     {epoch, spec, buckets, states}  build the engine:
//                        load the spec's traces, build the segment pool with
//                        core::build_segment_pool, adopt the given bucket
//                        states (fresh ones for labels without a state).
//                        Replies with the segment-pool fingerprint so the
//                        coordinator can verify both sides derived the same
//                        pool. Answers 409 busy while a pass runs.
//   POST /shard/iterate  {epoch, pass_id, target, buckets, working}  start
//                        one refinement pass in the background; replies 202
//                        immediately (the status server is single-threaded,
//                        so a pass must never run inline). 409 while busy.
//   POST /shard/cancel   {epoch}  stop the running pass (its coordinator
//                        gave it up); it ends with best-so-far after at most
//                        one sketch per bucket in progress. A no-op when idle.
//   GET  /shard/status   heartbeat + pass outcome: state machine
//                        empty -> idle -> busy -> done, the finished pass's
//                        post-pass bucket checkpoints, and cache tallies.
//   POST /shard/restore  {epoch, states}  adopt buckets mid-search (shard
//                        reassignment after a peer died). Idempotent.
//   POST /shard/quit     fire the quit latch (the worker main exits).
//
// Every malformed or out-of-order message answers with the one JSON error
// envelope and leaves the worker serviceable — a truncated body must never
// wedge the process (tested in tests/test_dist.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/status_server.hpp"
#include "synth/shard.hpp"
#include "util/cancellation.hpp"

namespace abg::dist {

class Worker {
 public:
  Worker();
  ~Worker();  // cancels + joins any in-flight pass

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // Register the /shard/* routes. Call before server.start().
  void mount(obs::StatusServer& server);

  // Latch fired by POST /shard/quit; the worker binary waits on this.
  bool quit_requested() const { return quit_.load(std::memory_order_acquire); }

 private:
  obs::HttpResponse handle_load(const obs::HttpRequest& req);
  obs::HttpResponse handle_iterate(const obs::HttpRequest& req);
  obs::HttpResponse handle_status(const obs::HttpRequest& req);
  obs::HttpResponse handle_restore(const obs::HttpRequest& req);
  obs::HttpResponse handle_cancel(const obs::HttpRequest& req);
  obs::HttpResponse handle_quit(const obs::HttpRequest& req);

  // Join the finished pass thread if any (mu_ must be held by caller logic
  // that guarantees the pass is not running).
  void join_pass_locked();

  enum class State { kEmpty, kIdle, kBusy, kDone };

  mutable std::mutex mu_;
  State state_ = State::kEmpty;
  std::uint64_t epoch_ = 0;
  std::uint64_t pass_id_ = 0;
  std::vector<trace::Segment> segments_;  // the loaded job's pool; outlives engine_
  std::unique_ptr<synth::ShardEngine> engine_;
  std::thread pass_thread_;
  bool pass_joinable_ = false;
  // Outcome of the last completed pass (valid in kDone).
  std::vector<synth::BucketCheckpoint> pass_result_;
  util::Status pass_status_;

  util::CancellationToken cancel_;  // fired by quit and the destructor
  // The running pass's token, linked to cancel_; replaced only once the
  // pass thread is joined.
  std::unique_ptr<util::CancellationToken> pass_cancel_;
  std::atomic<bool> quit_{false};
};

}  // namespace abg::dist
