// The coordinator half of distributed refinement search (ISSUE 9). A job
// runs the one refinement driver (synth::run_refinement) exactly as an
// in-process job does; only the driver's per-bucket passes go to N
// abagnale_worker processes over HTTP, through the remote pass executor in
// coordinator.cpp. Checkpoints, ranking, top-k, N/k growth, the terminal
// phase, final validation, the deadline and fault hooks, and the per-run
// metrics are the driver's, so the distributed winner is bit-identical to
// synth::synthesize() on one machine because it is the same code.
//
// The remote executor, per pass:
//   1. group the live buckets by owning worker (round-robin at job start),
//   2. POST /v1/shard/iterate to every group's worker (202 + background pass),
//   3. poll GET /v1/shard/status until every group reports its post-pass
//      BucketCheckpoints,
//   4. return them (and the best handler parsed from each) in the driver's
//      label order.
// A pass the job gives up (cancelled, timed out, or failed elsewhere) is
// stopped on every worker still running it (POST /v1/shard/cancel), and a
// job's load waits for a worker that is still busy with an earlier pass.
//
// A worker holds one job's shard at a time, so the jobs of one Coordinator
// take turns on its fleet: a job waits for the fleet before its load, and
// holds it until its refinement ends. Each job also loads under an epoch no
// other job of the process uses, so a stray iterate, restore or cancel from
// another job is refused (409) instead of acting on this job's shard.
//
// Fault tolerance: every bucket's committed state is the checkpoint from its
// last *completed* pass. When a worker stops answering (max_rpc_failures
// consecutive RPC errors — covers kill -9, hangs, and network loss), its
// live buckets are reassigned: a surviving worker adopts the committed
// states (POST /v1/shard/restore) and re-runs the pass. Because a pass is a
// pure function of its entry state (see synth/shard.hpp), the re-run
// reproduces exactly what the dead worker would have produced, and the
// final winner is unchanged. A worker once declared dead is never reused —
// a slow-but-alive straggler holds state the coordinator no longer trusts.
//
// A distributed job is an api::Engine job whose refinement stage is
// Coordinator::synthesizer: the Engine loads the traces, picks the DSL and
// builds the segment pool as for any job; workers rebuild the pool from the
// spec and the coordinator cross-checks its fingerprint.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/job.hpp"
#include "core/abagnale.hpp"
#include "util/result.hpp"

namespace abg::dist {

struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

// Parse "host:port,host:port,..." (bare "port" means 127.0.0.1). The
// abagnale_serve --workers attach syntax.
util::Result<std::vector<WorkerEndpoint>> parse_worker_endpoints(const std::string& list);

// True when Coordinator::run accepts `spec`: a kPipeline job over trace
// *paths* only. serve::Service uses this to pick which submitted jobs get
// the fleet's synthesizer.
bool spec_is_distributable(const api::JobSpec& spec);

struct FleetTurn;

struct CoordinatorOptions {
  std::vector<WorkerEndpoint> workers;
  // Per-RPC wall-clock budget. Passes run async (202 + poll), so this bounds
  // individual requests, not search time. Also the longest a job's load
  // waits for workers still busy with a pass an earlier job gave up.
  double rpc_timeout_s = 30.0;
  // Status-poll cadence while passes are in flight.
  double poll_interval_s = 0.02;
  // Consecutive RPC failures before a worker is declared dead.
  int max_rpc_failures = 3;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions opts);

  // The refinement stage of `spec` over this worker fleet, for
  // JobSpec::with_synthesizer: synth::run_refinement with the remote pass
  // executor. It holds copies of the options and the spec, so it may outlive
  // this Coordinator. It waits for the fleet's turn (see above) while
  // polling the job's cancellation. Sets the dist.workers,
  // dist.shards_reassigned_last_job and dist.job_seconds_last gauges when
  // the refinement ends.
  core::Synthesizer synthesizer(const api::JobSpec& spec) const;

  // Run one job distributed on a one-driver api::Engine, with its result
  // contract: errors (ineligible spec, all workers lost, corrupt checkpoint)
  // come back in JobResult::status, interrupts as partial results. Eligible
  // jobs are kPipeline over trace *paths* — pre-segmented input, in-memory
  // traces, and custom DSL objects cannot be shipped to a worker by value and
  // are rejected with kInvalidArgument.
  api::JobResult run(const api::JobSpec& spec);

 private:
  CoordinatorOptions opts_;
  // Held by the job whose refinement runs on the fleet; shared with every
  // synthesizer this Coordinator hands out.
  std::shared_ptr<FleetTurn> turn_;
};

}  // namespace abg::dist
