#include "dist/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <utility>

#include "api/engine.hpp"
#include "api/manifest.hpp"
#include "dist/http_client.hpp"
#include "dist/wire.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "synth/shard.hpp"
#include "util/csv.hpp"
#include "util/json_parse.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace abg::dist {

// The right to run one job on a Coordinator's fleet.
struct FleetTurn {
  std::mutex mu;
  std::condition_variable freed;
  bool held = false;
};

namespace {

util::Status invalid(const std::string& msg) {
  return util::Status(util::StatusCode::kInvalidArgument, msg);
}

// Coordinator-side view of one worker process.
struct WorkerView {
  WorkerEndpoint ep;
  bool alive = true;
  bool busy = false;
  int failures = 0;  // consecutive RPC failures; reset on any success
  // Labels of the pass group in flight on this worker.
  std::vector<std::string> inflight;
  // Labels queued for this worker but not yet issued this pass; entries
  // flagged true must be restored from committed state first (reassignment).
  std::vector<std::pair<std::string, bool>> queue;
};

std::string endpoint_name(const WorkerEndpoint& ep) {
  return ep.host + ":" + std::to_string(ep.port);
}

// The last epoch handed to a Fleet of this process. It starts at a random
// point below 2^52, so two coordinator processes that share a worker do not
// both load it under epoch 1 and run an iterate on each other's shard; the
// epochs stay below 2^53, the largest integer the wire's JSON numbers carry
// exactly.
std::atomic<std::uint64_t> last_epoch{[] {
  std::random_device rd;
  return ((std::uint64_t{rd()} << 32) | rd()) >> 12;
}()};

// The remote pass executor: one job's worker fleet. Takes the fleet's turn,
// loads the bucket states onto the workers, runs each pass as per-worker
// iterate RPCs, polls, and reassigns a dead worker's buckets from their
// committed states. The turn is released when the Fleet is destroyed.
struct Fleet final : synth::PassExecutor {
  Fleet(const CoordinatorOptions& copts, std::shared_ptr<FleetTurn> turn,
        std::uint64_t pool_fingerprint, std::string spec_json)
      : copts(copts),
        turn(std::move(turn)),
        pool_fingerprint(pool_fingerprint),
        spec_json(std::move(spec_json)) {
    workers.resize(copts.workers.size());
    for (std::size_t i = 0; i < workers.size(); ++i) workers[i].ep = copts.workers[i];
  }
  ~Fleet() override {
    if (!has_turn) return;
    {
      std::lock_guard lk(turn->mu);
      turn->held = false;
    }
    turn->freed.notify_one();
  }

  util::Status load(const std::vector<synth::BucketCheckpoint>& states,
                    const util::CancellationToken* cancel) override;
  util::Result<std::vector<synth::BucketOutcome>> run_pass(const synth::PassRequest& req) override;
  void cache_tallies(std::uint64_t* hits, std::uint64_t* misses) override;

  const CoordinatorOptions& copts;
  const std::shared_ptr<FleetTurn> turn;
  bool has_turn = false;  // from load on
  const std::uint64_t pool_fingerprint;
  const std::string spec_json;  // codec-serialized spec shipped to every worker

  std::vector<WorkerView> workers;
  std::map<std::string, std::size_t> bucket_index;  // label -> index
  std::vector<synth::BucketCheckpoint> committed;  // last completed pass, per bucket
  std::vector<std::size_t> owner;                  // bucket index -> worker index
  const std::uint64_t epoch = last_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t next_pass_id = 1;
  std::size_t reassigned = 0;
};

std::size_t alive_count(const Fleet& fleet) {
  std::size_t n = 0;
  for (const auto& w : fleet.workers) n += w.alive ? 1 : 0;
  return n;
}

void mark_dead(Fleet& fleet, std::size_t wi, const char* why) {
  if (!fleet.workers[wi].alive) return;
  fleet.workers[wi].alive = false;
  fleet.workers[wi].busy = false;
  static auto& c_lost = obs::counter("dist.workers_lost");
  c_lost.add();
  ABG_WARN("worker %s declared dead (%s); %zu still alive",
           endpoint_name(fleet.workers[wi].ep).c_str(), why, alive_count(fleet));
}

// The alive worker with the fewest queued + in-flight labels.
std::size_t least_loaded_alive(const Fleet& fleet) {
  std::size_t best = fleet.workers.size();
  std::size_t best_load = 0;
  for (std::size_t i = 0; i < fleet.workers.size(); ++i) {
    if (!fleet.workers[i].alive) continue;
    const std::size_t load = fleet.workers[i].queue.size() + fleet.workers[i].inflight.size();
    if (best == fleet.workers.size() || load < best_load) {
      best = i;
      best_load = load;
    }
  }
  return best;  // == workers.size() when none alive
}

util::Result<HttpReply> rpc(Fleet& fleet, std::size_t wi, const std::string& method,
                            const std::string& path, const std::string& body) {
  auto r = http_request(fleet.workers[wi].ep.host, fleet.workers[wi].ep.port, method, path, body,
                        fleet.copts.rpc_timeout_s);
  if (r.ok()) {
    fleet.workers[wi].failures = 0;
  } else {
    ++fleet.workers[wi].failures;
  }
  return r;
}

// Move every queued/in-flight label of a dead worker to a surviving one,
// flagged for restore (the survivor must adopt the committed state before
// re-running the pass). Also repoints the owner map so later passes land on
// the adopter directly.
util::Status reassign_from(Fleet& fleet, std::size_t dead_wi) {
  WorkerView& dead = fleet.workers[dead_wi];
  std::vector<std::pair<std::string, bool>> orphans = std::move(dead.queue);
  for (const auto& label : dead.inflight) orphans.emplace_back(label, true);
  dead.queue.clear();
  dead.inflight.clear();
  if (orphans.empty()) return util::Status::ok();

  static auto& c_reassigned = obs::counter("dist.shards_reassigned");
  for (auto& [label, _] : orphans) {
    const std::size_t target = least_loaded_alive(fleet);
    if (target == fleet.workers.size()) {
      return util::Status(util::StatusCode::kIoError,
                          "all workers lost; cannot reassign bucket " + label);
    }
    fleet.workers[target].queue.emplace_back(label, true);
    fleet.owner[fleet.bucket_index.at(label)] = target;
    ++fleet.reassigned;
    c_reassigned.add();
    ABG_INFO("bucket %s reassigned to %s", label.c_str(),
             endpoint_name(fleet.workers[target].ep).c_str());
  }
  return util::Status::ok();
}

// Budget of one /v1/shard/cancel. Cancelling is best effort and must not
// hold up the interrupted job; a worker that misses it is waited for at the
// next job's load instead.
constexpr double kCancelRpcTimeoutS = 1.0;

// Stop the pass on every worker that still runs one for this job: POST
// /v1/shard/cancel, so a given-up pass does not keep the worker busy.
void cancel_busy_workers(Fleet& fleet) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("epoch");
  w.value(fleet.epoch);
  w.end_object();
  const std::string body = w.take();
  for (WorkerView& wv : fleet.workers) {
    if (!wv.alive || !wv.busy) continue;
    (void)http_request(wv.ep.host, wv.ep.port, "POST", "/v1/shard/cancel", body,
                       std::min(fleet.copts.rpc_timeout_s, kCancelRpcTimeoutS));
    wv.busy = false;
  }
}

// The body of worker `wi`'s POST /v1/shard/load: its currently-owned buckets
// and their committed states. Sent at job start and never after (mid-run
// adoption goes through /v1/shard/restore, which preserves the worker's
// other buckets).
std::string load_body(const Fleet& fleet, std::size_t wi) {
  std::vector<std::size_t> owned;
  for (std::size_t b = 0; b < fleet.committed.size(); ++b) {
    if (fleet.owner[b] == wi) owned.push_back(b);
  }
  obs::JsonWriter w;
  w.begin_object();
  w.key("epoch");
  w.value(fleet.epoch);
  w.key("spec");
  w.raw(fleet.spec_json);
  w.key("buckets");
  w.begin_array();
  for (std::size_t b : owned) w.value(fleet.committed[b].label);
  w.end_array();
  w.key("states");
  w.begin_array();
  for (std::size_t b : owned) write_bucket_checkpoint(w, fleet.committed[b]);
  w.end_array();
  w.end_object();
  return w.take();
}

// Check worker `wi`'s answer to its load (any code but 409 busy).
util::Status check_load_reply(const Fleet& fleet, std::size_t wi, const HttpReply& r) {
  if (r.code != 200) {
    return util::Status(util::StatusCode::kUnknown,
                        "worker " + endpoint_name(fleet.workers[wi].ep) + " rejected load: " +
                            r.body);
  }
  auto doc = util::parse_json(r.body);
  if (!doc.ok()) return doc.status().with_context("load reply");
  const auto* fp = doc->find("pool_fingerprint");
  std::uint64_t worker_fp = 0;
  if (fp == nullptr || !u64_from_json(*fp, "pool_fingerprint", &worker_fp).is_ok()) {
    return util::Status(util::StatusCode::kParseError, "malformed load reply");
  }
  if (worker_fp != fleet.pool_fingerprint) {
    // The worker derived a different segment pool from the same spec —
    // mismatched trace files on its filesystem. Running it would silently
    // search a different problem.
    return util::Status(util::StatusCode::kInvalidTrace,
                        "worker " + endpoint_name(fleet.workers[wi].ep) +
                            " segment-pool fingerprint mismatch (different trace data?)");
  }
  return util::Status::ok();
}

// Run one distributed pass over `labels` (in live order): issue per-worker
// iterate RPCs, poll, reassign on death, and return the post-pass
// checkpoints keyed by label. Cancellation aborts with the token's reason.
util::Status dispatch_pass(Fleet& fleet, const std::vector<std::string>& labels,
                           std::size_t target, const std::vector<std::size_t>& working,
                           const util::CancellationToken* cancel,
                           std::map<std::string, synth::BucketCheckpoint>* out) {
  static auto& c_passes = obs::counter("dist.passes");
  c_passes.add();

  // Queue every label on its owner, initially without restore (the owner
  // already holds the bucket from load or an earlier pass).
  for (const auto& label : labels) {
    const std::size_t wi = fleet.owner.at(fleet.bucket_index.at(label));
    if (!fleet.workers[wi].alive) {
      // Owner died in an earlier pass and this bucket was not live then;
      // route it like any orphan.
      const std::size_t t = least_loaded_alive(fleet);
      if (t == fleet.workers.size()) {
        return util::Status(util::StatusCode::kIoError, "all workers lost");
      }
      fleet.owner[fleet.bucket_index.at(label)] = t;
      fleet.workers[t].queue.emplace_back(label, true);
      ++fleet.reassigned;
      obs::counter("dist.shards_reassigned").add();
    } else {
      fleet.workers[wi].queue.emplace_back(label, false);
    }
  }

  const std::string working_json = [&] {
    obs::JsonWriter w;
    w.begin_array();
    for (std::size_t idx : working) w.value(static_cast<std::uint64_t>(idx));
    w.end_array();
    return w.take();
  }();

  std::size_t collected = 0;
  while (collected < labels.size()) {
    if (cancel != nullptr && cancel->cancelled()) {
      return util::Status(cancel->reason(), "distributed pass interrupted");
    }

    // Issue queued groups to every idle alive worker.
    for (std::size_t wi = 0; wi < fleet.workers.size(); ++wi) {
      WorkerView& wv = fleet.workers[wi];
      if (!wv.alive || wv.busy || wv.queue.empty()) continue;

      // Restore first where needed (adopting a dead peer's committed state).
      std::vector<std::size_t> restore;
      for (const auto& [label, needs_restore] : wv.queue) {
        if (needs_restore) restore.push_back(fleet.bucket_index.at(label));
      }
      if (!restore.empty()) {
        obs::JsonWriter w;
        w.begin_object();
        w.key("epoch");
        w.value(fleet.epoch);
        w.key("states");
        w.begin_array();
        for (std::size_t b : restore) write_bucket_checkpoint(w, fleet.committed[b]);
        w.end_array();
        w.end_object();
        auto r = rpc(fleet, wi, "POST", "/v1/shard/restore", w.take());
        if (!r.ok() || r->code != 200) {
          if (wv.failures >= fleet.copts.max_rpc_failures || (r.ok() && r->code != 200)) {
            mark_dead(fleet, wi, "restore failed");
            if (auto st = reassign_from(fleet, wi); !st.is_ok()) return st;
          }
          continue;
        }
      }

      obs::JsonWriter w;
      w.begin_object();
      w.key("epoch");
      w.value(fleet.epoch);
      w.key("pass_id");
      w.value(fleet.next_pass_id);
      w.key("target");
      w.value(static_cast<std::uint64_t>(target));
      w.key("buckets");
      w.begin_array();
      for (const auto& [label, _] : wv.queue) w.value(label);
      w.end_array();
      w.key("working");
      w.raw(working_json);
      w.end_object();
      auto r = rpc(fleet, wi, "POST", "/v1/shard/iterate", w.take());
      if (!r.ok()) {
        if (wv.failures >= fleet.copts.max_rpc_failures) {
          mark_dead(fleet, wi, "iterate failed");
          if (auto st = reassign_from(fleet, wi); !st.is_ok()) return st;
        }
        continue;
      }
      if (r->code != 202) {
        mark_dead(fleet, wi, ("iterate rejected: " + r->body).c_str());
        if (auto st = reassign_from(fleet, wi); !st.is_ok()) return st;
        continue;
      }
      wv.inflight.clear();
      for (const auto& [label, _] : wv.queue) wv.inflight.push_back(label);
      wv.queue.clear();
      wv.busy = true;
      ++fleet.next_pass_id;
    }

    bool any_busy = false;
    for (const auto& wv : fleet.workers) any_busy = any_busy || wv.busy;
    if (!any_busy) {
      // Nothing in flight and nothing issuable; if labels remain, every
      // carrier died without a survivor to take over.
      bool pending = false;
      for (const auto& wv : fleet.workers) pending = pending || !wv.queue.empty();
      if (!pending && collected < labels.size()) {
        return util::Status(util::StatusCode::kIoError, "all workers lost mid-pass");
      }
      if (pending && alive_count(fleet) == 0) {
        return util::Status(util::StatusCode::kIoError, "all workers lost mid-pass");
      }
      continue;
    }

    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(fleet.copts.poll_interval_s * 1e6)));

    // Poll the busy workers.
    for (std::size_t wi = 0; wi < fleet.workers.size(); ++wi) {
      WorkerView& wv = fleet.workers[wi];
      if (!wv.alive || !wv.busy) continue;
      auto r = rpc(fleet, wi, "GET", "/v1/shard/status", "");
      if (!r.ok()) {
        if (wv.failures >= fleet.copts.max_rpc_failures) {
          mark_dead(fleet, wi, "status poll failed");
          if (auto st = reassign_from(fleet, wi); !st.is_ok()) return st;
        }
        continue;
      }
      auto doc = util::parse_json(r->body);
      if (!doc.ok() || !doc->is_object()) {
        mark_dead(fleet, wi, "malformed status reply");
        if (auto st = reassign_from(fleet, wi); !st.is_ok()) return st;
        continue;
      }
      const auto* state = doc->find("state");
      const std::string s = state != nullptr && state->is_string() ? state->as_string() : "";
      if (s == "busy") continue;
      if (s != "done") {
        mark_dead(fleet, wi, ("unexpected worker state '" + s + "'").c_str());
        if (auto st = reassign_from(fleet, wi); !st.is_ok()) return st;
        continue;
      }
      if (const auto* pe = doc->find("pass_error"); pe != nullptr) {
        // The pass itself failed on an intact worker (e.g. a corrupt restore
        // payload): a real error, not a death to route around.
        return util::Status(util::StatusCode::kUnknown,
                            "worker " + endpoint_name(wv.ep) + " pass failed: " +
                                (pe->is_string() ? pe->as_string() : "?"));
      }
      const auto* cks = doc->find("checkpoints");
      if (cks == nullptr || !cks->is_array() || cks->items().size() != wv.inflight.size()) {
        mark_dead(fleet, wi, "malformed pass result");
        if (auto st = reassign_from(fleet, wi); !st.is_ok()) return st;
        continue;
      }
      bool ok = true;
      for (const auto& item : cks->items()) {
        synth::BucketCheckpoint ck;
        if (auto st = bucket_checkpoint_from_json(item, &ck); !st.is_ok()) {
          mark_dead(fleet, wi, ("undecodable checkpoint: " + st.to_string()).c_str());
          if (auto rst = reassign_from(fleet, wi); !rst.is_ok()) return rst;
          ok = false;
          break;
        }
        (*out)[ck.label] = std::move(ck);
      }
      if (!ok) continue;
      collected += wv.inflight.size();
      wv.inflight.clear();
      wv.busy = false;
    }
  }
  return util::Status::ok();
}

// Sum the workers' cumulative cache tallies (best effort: a dead worker's
// counts are simply absent — the stats are observability, not results).
void poll_cache_tallies(Fleet& fleet, std::uint64_t* hits, std::uint64_t* misses) {
  *hits = 0;
  *misses = 0;
  for (std::size_t wi = 0; wi < fleet.workers.size(); ++wi) {
    if (!fleet.workers[wi].alive) continue;
    auto r = rpc(fleet, wi, "GET", "/v1/shard/status", "");
    if (!r.ok()) continue;
    auto doc = util::parse_json(r->body);
    if (!doc.ok()) continue;
    std::uint64_t h = 0, m = 0;
    if (const auto* v = doc->find("cache_hits"); v != nullptr) {
      (void)u64_from_json(*v, "cache_hits", &h);
    }
    if (const auto* v = doc->find("cache_misses"); v != nullptr) {
      (void)u64_from_json(*v, "cache_misses", &m);
    }
    *hits += h;
    *misses += m;
  }
}

util::Status Fleet::load(const std::vector<synth::BucketCheckpoint>& states,
                         const util::CancellationToken* cancel) {
  const auto poll = std::chrono::microseconds(static_cast<long>(copts.poll_interval_s * 1e6));
  auto interrupted = [&] {
    return util::Status(cancel->reason(), "distributed job interrupted before its load");
  };
  {
    // Wait for the jobs ahead of this one on the fleet.
    std::unique_lock lk(turn->mu);
    while (turn->held) {
      if (cancel != nullptr && cancel->cancelled()) return interrupted();
      turn->freed.wait_for(lk, poll);
    }
    turn->held = true;
    has_turn = true;
  }

  committed = states;
  for (std::size_t b = 0; b < committed.size(); ++b) {
    bucket_index[committed[b].label] = b;
    owner.push_back(b % workers.size());
  }
  // A worker still running a pass (one a cancelled job gave up, or another
  // process's) answers 409 busy. Busy workers are asked again every poll
  // interval until rpc_timeout_s has passed since the first ask; one still
  // busy then is declared dead.
  std::vector<std::size_t> ask(workers.size());
  for (std::size_t wi = 0; wi < workers.size(); ++wi) ask[wi] = wi;
  const util::Stopwatch waited;
  while (!ask.empty()) {
    std::vector<std::size_t> busy;
    for (std::size_t wi : ask) {
      auto r = rpc(*this, wi, "POST", "/v1/shard/load", load_body(*this, wi));
      if (r.ok() && r->code == 409) {
        busy.push_back(wi);
        continue;
      }
      const util::Status st = r.ok() ? check_load_reply(*this, wi, *r) : r.status();
      if (st.is_ok()) continue;
      if (st.code() == util::StatusCode::kInvalidTrace ||
          st.code() == util::StatusCode::kUnknown || st.code() == util::StatusCode::kParseError) {
        // A worker that answers wrongly is a configuration error, not a
        // crash to route around.
        return st;
      }
      mark_dead(*this, wi, "load failed");
    }
    if (busy.empty()) break;
    if (cancel != nullptr && cancel->cancelled()) return interrupted();
    if (waited.elapsed_seconds() >= copts.rpc_timeout_s) {
      for (std::size_t wi : busy) mark_dead(*this, wi, "still running an earlier pass");
      break;
    }
    std::this_thread::sleep_for(poll);
    ask = std::move(busy);
  }
  if (alive_count(*this) == 0) {
    return util::Status(util::StatusCode::kIoError, "no worker accepted the job");
  }
  // Buckets owned by workers that died during load move to survivors (the
  // committed state is still fresh, so restore-at-iterate is cheap).
  for (std::size_t b = 0; b < committed.size(); ++b) {
    if (!workers[owner[b]].alive) owner[b] = least_loaded_alive(*this);
  }
  obs::gauge("dist.workers").set(static_cast<double>(alive_count(*this)));
  return util::Status::ok();
}

util::Result<std::vector<synth::BucketOutcome>> Fleet::run_pass(const synth::PassRequest& req) {
  std::map<std::string, synth::BucketCheckpoint> by_label;
  if (auto st = dispatch_pass(*this, req.labels, req.target, req.working, req.cancel, &by_label);
      !st.is_ok()) {
    // The job gives this pass up (interrupted, or failed elsewhere), so the
    // workers still running it stop too.
    cancel_busy_workers(*this);
    return st;
  }
  std::vector<synth::BucketOutcome> out;
  out.reserve(req.labels.size());
  for (const auto& label : req.labels) {
    const auto it = by_label.find(label);
    if (it == by_label.end()) {
      return util::Status(util::StatusCode::kUnknown, "pass result missing bucket " + label);
    }
    const synth::BucketCheckpoint& ck = it->second;
    committed[bucket_index.at(label)] = ck;
    auto best = synth::parse_scored_handler(ck.best_distance, ck.best_sketch, ck.best_handler);
    if (!best.ok()) return best.status().with_context("bucket " + label);
    out.push_back({ck, std::move(*best)});
  }
  return out;
}

void Fleet::cache_tallies(std::uint64_t* hits, std::uint64_t* misses) {
  poll_cache_tallies(*this, hits, misses);
}

}  // namespace

util::Result<std::vector<WorkerEndpoint>> parse_worker_endpoints(const std::string& list) {
  std::vector<WorkerEndpoint> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    std::string item = list.substr(start, comma - start);
    const bool last = comma == list.size();
    start = comma + 1;
    // Tolerate surrounding whitespace ("7001, 7002") but treat an empty
    // token as a typo, not a no-op — a silently shrunk fleet is worse.
    while (!item.empty() && std::isspace(static_cast<unsigned char>(item.front()))) {
      item.erase(item.begin());
    }
    while (!item.empty() && std::isspace(static_cast<unsigned char>(item.back()))) {
      item.pop_back();
    }
    if (item.empty()) {
      if (last && out.empty() && start > list.size()) break;  // whole list empty
      return invalid("empty worker endpoint in list '" + list + "'");
    }
    WorkerEndpoint ep;
    const std::size_t colon = item.rfind(':');
    std::string port_str = item;
    if (colon != std::string::npos) {
      ep.host = item.substr(0, colon);
      if (ep.host.empty()) {
        return invalid("bad worker endpoint '" + item + "' (empty host)");
      }
      port_str = item.substr(colon + 1);
    }
    std::uint64_t port = 0;
    if (!util::parse_u64(port_str, &port) || port == 0 || port > 65535) {
      return invalid("bad worker endpoint '" + item + "' (want host:port)");
    }
    ep.port = static_cast<std::uint16_t>(port);
    out.push_back(std::move(ep));
  }
  if (out.empty()) return invalid("empty worker list");
  return out;
}

bool spec_is_distributable(const api::JobSpec& spec) {
  return spec.kind == api::JobSpec::Kind::kPipeline && !spec.trace_paths.empty() &&
         spec.segments.empty() && spec.traces.empty() && !spec.custom_dsl;
}

Coordinator::Coordinator(CoordinatorOptions opts)
    : opts_(std::move(opts)), turn_(std::make_shared<FleetTurn>()) {}

core::Synthesizer Coordinator::synthesizer(const api::JobSpec& spec) const {
  return [copts = opts_, turn = turn_, spec](const dsl::Dsl& d,
                                             const std::vector<trace::Segment>& segments,
                                             const synth::SynthesisOptions& opts) {
    util::Stopwatch clock;
    // Workers rebuild the pool from the spec with the DSL resolved (they
    // never classify); the load reply's fingerprint cross-checks it.
    api::JobSpec worker_spec = spec;
    worker_spec.pipeline.dsl_override = d.name;
    Fleet fleet(copts, turn, synth::segment_set_fingerprint(segments),
                api::spec_to_json(worker_spec));
    synth::SynthesisResult r = synth::run_refinement(d, segments, opts, fleet);
    obs::gauge("dist.workers").set(static_cast<double>(alive_count(fleet)));
    obs::gauge("dist.shards_reassigned_last_job").set(static_cast<double>(fleet.reassigned));
    // Wall-clock of the last distributed refinement, for scaling gates: CI
    // runs the same job on 1 worker and N workers and feeds the two metrics
    // snapshots to `abg_report --gate dist.job_seconds_last.last=0` (N-worker
    // must not be slower).
    obs::gauge("dist.job_seconds_last").set(clock.elapsed_seconds());
    return r;
  };
}

api::JobResult Coordinator::run(const api::JobSpec& spec) {
  auto rejected = [&](util::Status st) {
    api::JobResult out;
    out.name = spec.name;
    out.kind = spec.kind;
    out.status = std::move(st);
    return out;
  };
  if (opts_.workers.empty()) return rejected(invalid("no workers configured"));
  if (spec.kind != api::JobSpec::Kind::kPipeline) {
    return rejected(invalid("distributed mode supports pipeline jobs only"));
  }
  if (!spec.segments.empty() || !spec.traces.empty() || spec.custom_dsl) {
    return rejected(invalid(
        "distributed mode needs trace paths (pre-segmented input, in-memory traces, and "
        "custom DSL objects cannot be shipped to workers)"));
  }
  // An api::Engine job like any other, so validation, trace loading, DSL
  // choice, the segment pool, obs labels and the result summary are the
  // Engine's; only the refinement stage runs on the fleet.
  api::Engine engine({.threads = 1, .max_concurrent_jobs = 1});
  api::JobSpec job = spec;
  job.with_synthesizer(synthesizer(spec));
  auto handle = engine.submit(std::move(job));
  if (!handle.ok()) return rejected(handle.status());
  return handle->wait();
}

}  // namespace abg::dist
