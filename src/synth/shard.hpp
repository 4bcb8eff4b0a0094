// Shard-able refinement (ISSUE 9): the per-bucket pass, the per-bucket
// state it mutates, the checkpoint conversions that move that state between
// processes, and the pass-executor seam of the one refinement driver. The
// driver (run_refinement) owns Algorithm 1; a PassExecutor runs its bucket
// passes in this process (ShardEngine) or on a worker fleet
// (dist::Coordinator), and both execute the same per-bucket pass — enumerate
// sketches to a target, then re-score every sketch under the current working
// set with the bucket-best abandon bound.
//
// Determinism contract: a bucket pass is a pure function of (bucket state at
// pass entry, enumeration target, working segment set, SynthesisOptions).
// The RNG advances sequentially across passes, so replaying a pass from a
// checkpointed entry state reproduces exactly what the original process
// would have produced — that is the whole recovery story for worker death.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "synth/buckets.hpp"
#include "synth/checkpoint.hpp"
#include "synth/enumerator.hpp"
#include "synth/eval_cache.hpp"
#include "synth/refinement.hpp"
#include "trace/trace.hpp"
#include "util/cancellation.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace abg::synth {

// Deterministic per-bucket RNG seed: every process that searches bucket
// `label` under run seed `seed` must derive the same stream (FNV-1a over the
// label, keyed by the seed). Exported so workers seed fresh buckets exactly
// as the single-process loop does.
std::uint64_t bucket_rng_seed(const std::string& label, std::uint64_t seed);

// The distance options for a run: opts.dopts. Kept only for the benchmark
// harness, which still calls it; delete it once the harness reads dopts.
distance::DistanceOptions effective_distance_options(const SynthesisOptions& opts);

// Interned journal id of the run's {job=...} obs label (the engine and the
// coordinator stamp one); 0 for a standalone run.
std::uint32_t journal_job_id(const SynthesisOptions& opts);

// Mutable per-bucket search state kept across iterations.
struct BucketSearchState {
  Bucket bucket;
  // Lease on the bucket's sketch stream, shared with every other job in
  // flight on the same spec. Taken on first use and dropped once useless
  // (the bucket is exhausted or no longer searched) or outranked (see
  // ShardEngine); re-leased if needed again.
  std::shared_ptr<SketchStream> enumerator;
  std::vector<dsl::ExprPtr> sketches;            // taken from the stream so far
  ScoredHandler best;                            // best under the *current* segment set
  std::size_t handlers_scored = 0;
  bool exhausted = false;
  util::Rng rng{0};
};

// Lease st's sketch stream under the run options (idempotent; no-op when
// already held or the bucket is exhausted).
void ensure_bucket_enumerator(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                              BucketSearchState& st);

// Take sketches from st's stream until st holds `target` or the bucket is
// exhausted, counting each new sketch into "synth.sketches_enumerated" (and
// into "synth.stream_sketches_shared" when another lease produced it) and
// journaling it under the caller's scope. A bucket that holds no sketch
// takes one even when `stop` fires, so an expired budget still returns the
// best handler seen (§4.4's interrupt semantics); one that holds some takes
// none once `stop` fires, and leases nothing. The sketches st already holds
// must be its stream's first ones (a re-leased stream re-derives them,
// counting only into "synth.streams_rederived" and journaling nothing); a
// held sketch that differs is kParseError.
util::Status enumerate_bucket_sketches(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                                       BucketSearchState& st, std::size_t target,
                                       const std::function<bool()>& stop);

// Re-score ALL of st's sketches under `working` (Algorithm 1 line 5), each
// sketch bounded by the bucket's own running best (the per-bucket minimum
// feeds the top-k ranking and must stay exact). Sets st.best and returns it.
// `stop` is polled after every sketch; once a valid best exists a fired stop
// ends the pass with best-so-far. Adds the handlers it scores to both
// st.handlers_scored and the "synth.handlers_scored" counter.
ScoredHandler score_bucket_pass(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                                BucketSearchState& st,
                                const std::vector<trace::Segment>& working, EvalContext* ctx,
                                const std::function<bool()>& stop);

// Parse a (distance, sketch text, handler text) triple back into a
// ScoredHandler; empty texts stay null. kParseError on malformed text.
util::Result<ScoredHandler> parse_scored_handler(double distance, const std::string& sketch_text,
                                                 const std::string& handler_text);

// Snapshot / restore one bucket's state. Restore takes the first
// ck.sketches of the bucket's stream (sketches are never serialized; the
// stream is deterministic) without counting or journaling them (a fresh
// producer that derives them adds one to "synth.streams_rederived"), and checks
// them against ck.stream_hash: kParseError when the stream is shorter or its
// hash differs. Checkpoint resume and worker adoption both come here.
BucketCheckpoint bucket_state_to_checkpoint(const BucketSearchState& st);
util::Status bucket_state_from_checkpoint(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                                          const BucketCheckpoint& ck, BucketSearchState* st);

// One bucket's share of a finished refinement pass: its post-pass state and
// its best handler under the pass's working set (invalid when it has none).
struct BucketOutcome {
  BucketCheckpoint checkpoint;
  ScoredHandler best;
};

// One refinement pass as the driver asks for it (Algorithm 1 line 3 or the
// terminal exhaustive phase).
struct PassRequest {
  std::vector<std::string> labels;  // the live buckets, in the driver's order
  std::size_t target = 0;           // enumerate each bucket up to this many sketches
  std::vector<std::size_t> working;  // segment-pool indices; empty = the whole pool
  int iter = 0;                      // refinement iteration (journal provenance)
  // The top-k cut the driver makes right after this pass (only-top-k with
  // ties), or 0 when it cuts nothing. A bucket whose post-pass best is
  // strictly worse than the keep-th best among the buckets already finished
  // is certain to be cut, so an executor may drop its stream lease mid-pass.
  std::size_t keep = 0;
  // The run already holds a valid best. Once `cancel` fires, an executor may
  // then skip buckets it has not started instead of scoring one sketch each.
  bool have_best = false;
  const util::CancellationToken* cancel = nullptr;
};

// Where the refinement driver's bucket passes run: in this process
// (ShardEngine) or on a worker fleet (dist::Coordinator). A pass is a pure
// function of the bucket states it starts from, so both produce the same
// outcomes, and the driver cannot tell them apart.
class PassExecutor {
 public:
  PassExecutor() = default;
  PassExecutor(const PassExecutor&) = delete;
  PassExecutor& operator=(const PassExecutor&) = delete;
  virtual ~PassExecutor() = default;
  // Start from these states, one per bucket of the DSL (fresh or resumed).
  // A load that has to wait (for a busy worker fleet) gives up with the
  // token's reason once `cancel` fires.
  virtual util::Status load(const std::vector<BucketCheckpoint>& states,
                            const util::CancellationToken* cancel) = 0;
  // Run one pass; outcomes come back in req.labels order. An interrupted
  // pass either returns best-so-far outcomes or fails with the token's
  // reason (kCancelled/kTimeout).
  virtual util::Result<std::vector<BucketOutcome>> run_pass(const PassRequest& req) = 0;
  // This run's cumulative memo-cache probes.
  virtual void cache_tallies(std::uint64_t* hits, std::uint64_t* misses) = 0;
};

// Algorithm 1 (§4.4): the one refinement driver. Owns checkpoint resume and
// save, ranking, top-k with ties, N/k/segment growth, the terminal
// exhaustive phase, final validation, and the per-run observability; every
// bucket pass goes through `exec`. synthesize() runs it over a ShardEngine,
// dist::Coordinator over its worker fleet.
SynthesisResult run_refinement(const dsl::Dsl& dsl, const std::vector<trace::Segment>& segments,
                               const SynthesisOptions& opts, PassExecutor& exec);

// The local pass executor: a set of bucket states plus the evaluation
// infrastructure (thread pool, memo cache) to run passes over them. It backs
// synthesize() and each abagnale_worker's share of a distributed search.
// Buckets of one pass run in parallel, each under its own journal scope and
// trace span.
//
// A bucket holds its stream lease only while it can still yield sketches,
// may still be searched, and ranks among the P = pool width best finished
// buckets of its pass. The engine drops leases on the pool, never serially,
// so the last lease of a stream tears its Z3 producer down there: in the
// bucket's own pass task once it is exhausted; as soon as the pass proves
// the bucket cut (PassRequest::keep), or P better finished buckets hold
// leases, in the pass task that finds it, so a pass leaves at most P
// producers; as extra tasks of the next pass for held buckets that pass
// does not name; and in the destructor for the rest. P is the width because
// a pass runs at most P + 1 buckets at once, and the driver orders the next
// pass's labels by score, so the held ones are its first wave. A dropped
// bucket the next pass names again re-derives its held prefix with a fresh
// producer (synth.streams_rederived), which changes no result.
class ShardEngine final : public PassExecutor {
 public:
  // `segments` is the job's full pool and must outlive the engine. The pool
  // and memo cache are opts.pool / opts.shared_cache when set, else owned
  // (opts.threads wide). SIMD choice is folded into the distance options.
  ShardEngine(dsl::Dsl dsl, const std::vector<trace::Segment>& segments, SynthesisOptions opts);
  ~ShardEngine() override;

  // Start searching `label` from scratch (fresh RNG from bucket_rng_seed).
  // kInvalidArgument when the DSL has no such bucket.
  util::Status add_bucket(const std::string& label);
  // Adopt a bucket mid-search from a checkpoint (resume, or shard
  // reassignment after a worker death). Overwrites any existing state for
  // the label, so re-sends are idempotent.
  util::Status adopt_bucket(const BucketCheckpoint& ck);
  bool has_bucket(const std::string& label) const;

  util::Status load(const std::vector<BucketCheckpoint>& states,
                    const util::CancellationToken* cancel) override;
  util::Result<std::vector<BucketOutcome>> run_pass(const PassRequest& req) override;
  void cache_tallies(std::uint64_t* hits, std::uint64_t* misses) override;

 private:
  struct State : BucketSearchState {
    std::uint32_t journal_bucket = 0;  // interned label, resolved on first journaled pass
  };

  dsl::Dsl dsl_;
  const std::vector<trace::Segment>& segments_;
  SynthesisOptions opts_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_ = nullptr;
  EvalCache owned_cache_;
  EvalCache* cache_ = nullptr;
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  bool journal_ = false;         // journal this run's passes
  std::uint32_t journal_job_ = 0;  // interned {job=...} label; 0 = standalone
  std::map<std::string, Bucket> bucket_defs_;  // every bucket of the DSL
  std::map<std::string, State> states_;        // the ones this shard owns
};

}  // namespace abg::synth
