// The synthesis refinement loop (§4.4, Algorithm 1):
//
//   while buckets not exhausted:
//     for each bucket (in parallel): sample N sketches, score them,
//       bucket-score = min distance over concretized handlers
//     keep only the top-k buckets; N *= 8; k /= 2; working segments += 2
//
// Every iteration is recorded in an IterationReport so the §6.1 / §6.2 /
// Table 4 accounting (bucket ranks, handlers scored, space explored) can be
// reproduced from a single synthesis run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "distance/distance.hpp"
#include "dsl/dsl.hpp"
#include "dsl/expr.hpp"
#include "obs/registry.hpp"
#include "synth/buckets.hpp"
#include "synth/concretize.hpp"
#include "synth/enumerator.hpp"
#include "synth/eval_cache.hpp"
#include "trace/trace.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace abg::util {
class ThreadPool;
}  // namespace abg::util

namespace abg::synth {

struct IterationReport;

struct SynthesisOptions {
  distance::Metric metric = distance::Metric::kDtw;
  distance::DistanceOptions dopts;

  int initial_samples = 16;       // N in Algorithm 1
  int initial_keep = 5;           // k in Algorithm 1
  int initial_segments = 4;       // working-set size, grows by 2 per iteration
  // After the loop, every bucket-best candidate handler is re-scored on a
  // larger diverse segment sample; the returned handler is the best under
  // that validation set. This is the guard against over-fitting a small
  // working set (§3.2's concern, applied at the end as well).
  std::size_t final_validation_segments = 12;
  int sample_growth = 8;          // N multiplier per iteration
  std::size_t concretize_budget = 48;  // handlers per sketch (§4.2)
  int max_iterations = 6;
  double timeout_s = std::numeric_limits<double>::infinity();
  std::size_t exhaustive_cap = 4000;  // sketch cap when finishing a bucket

  bool unit_check = true;
  int max_holes = 4;
  std::optional<int> max_depth;  // override the DSL's bound
  std::optional<int> max_nodes;

  std::size_t threads = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 7;

  // --- Fault tolerance (ISSUE 3).
  // Optional caller-supplied cancellation. synthesize() links its own token
  // to this one, so an embedding application (or a signal handler) can
  // preempt a run; the loop unwinds with best-so-far and partial=true.
  const util::CancellationToken* cancel = nullptr;
  // When non-empty, the full search state is serialized here after every
  // completed iteration (atomic tmp+rename). With resume=true the loop first
  // restores that state and continues from the next iteration, producing
  // bit-identical results to an uninterrupted run.
  std::string checkpoint_path;
  bool resume = false;

  // --- Evaluation fast path (ISSUE 2). Both knobs change only how much
  // work is done, never the result: the selected handlers and reported
  // distances are bit-identical with them on or off (asserted by the golden
  // test in tests/test_fast_path.cpp).
  // Memoize total_distance by (canonical handler, working-set fingerprint),
  // shared across buckets and iterations ("synth.cache_hits"/"_misses").
  bool use_eval_cache = true;
  // Thread the running best distance into total_distance/DTW so hopeless
  // candidates abandon early ("distance.early_abandons",
  // "synth.distance_abandons").
  bool early_abandon = true;

  // --- Data-parallel evaluation. score_sketch always compiles
  // each sketch to bytecode once and replays one segment across up to
  // dsl::kBatchLanes hole-assignments in lockstep; the tree-walk replay()
  // remains the oracle it is tested against. Like the fast-path knobs
  // above, the kernel tier changes only how the work is done, never the
  // result the refinement loop consumes (same golden test). The DTW kernel
  // is a property of the process (ABG_SIMD, else the CPU; see
  // distance::resolve_simd); dopts.simd pins it per call.

  // --- Search forensics (ISSUE 6). When true AND a process-wide journal is
  // armed (obs::journal_start), this run emits one event per candidate
  // lifecycle step with full provenance. With no journal armed the cost is
  // one relaxed load per site; false opts this run out even when a journal
  // is armed (a batch can journal selected jobs only). Never changes the
  // result — the journal observes the search, it does not steer it.
  bool journal = true;

  // --- Batch engine hooks (ISSUE 4). None of these change the result; they
  // let abg::api::Engine run many jobs against shared infrastructure.
  // Non-owning executor. When set, bucket scoring runs on this pool (shared
  // across jobs by the engine) instead of a fresh per-run pool; `threads` is
  // then ignored. Must outlive the synthesize() call.
  util::ThreadPool* pool = nullptr;
  // Non-owning cross-job memo cache. When set (and use_eval_cache is true),
  // it replaces the per-run cache, so a second job over the same segment
  // working sets answers its evaluations from the first job's inserts.
  // Entries are exact and keyed by (segment fingerprint, canonical handler),
  // so sharing never changes any job's result. Must outlive the call.
  EvalCache* shared_cache = nullptr;
  // Streamed progress: invoked on the synthesizing thread right after each
  // completed iteration's report is recorded (checkpoint-restored iterations
  // are not replayed). The report reference is valid only during the call.
  std::function<void(const IterationReport&)> on_iteration;

  // --- Live introspection (ISSUE 5). When non-empty, the run additionally
  // records labeled metric series carrying these labels (the engine passes
  // {job=<name>, cca=<dsl>}): synth.iterations / synth.best_distance per
  // run, and synth.handlers_scored with a `bucket` label appended per
  // bucket. The unlabeled process-wide series keep counting regardless, so
  // existing totals (and the double-accounting tests) are unaffected.
  obs::Labels obs_labels;

  // Eager validation of every knob above; called by synthesize() and by
  // every api entry point. Returns kInvalidArgument naming the first bad
  // field, so misconfiguration fails before any work instead of late (a
  // negative sample count, zero keep, or segments < 1 previously crept into
  // the loop arithmetic).
  util::Status validate() const;
};

struct ScoredHandler {
  dsl::ExprPtr sketch;   // with holes
  dsl::ExprPtr handler;  // concrete
  double distance = std::numeric_limits<double>::infinity();
  // Journal identity (obs::journal_fingerprint) of the winning hole
  // assignment; 0 when the run was not journaled (or the handler was
  // restored from a checkpoint). Lets `abg_inspect why <fingerprint>` trace
  // a selected handler back through its lifecycle events.
  std::uint64_t fingerprint = 0;

  bool valid() const { return handler != nullptr; }
};

struct BucketReport {
  std::string label;
  double score = std::numeric_limits<double>::infinity();
  std::size_t sketches_enumerated = 0;
  std::size_t handlers_scored = 0;
  bool exhausted = false;
  bool retained = false;
};

struct IterationReport {
  int n_target = 0;              // N for this iteration
  int keep = 0;                  // k for this iteration
  std::size_t segments_used = 0;
  std::vector<BucketReport> buckets;  // sorted by ascending score
  double seconds = 0.0;
  // Convergence point (ISSUE 5): the run's best distance after this
  // iteration and the cumulative memo-cache traffic up to it, so a search-
  // progress curve (paper Figure 3 style) falls out of the report series.
  double best_distance = std::numeric_limits<double>::infinity();
  std::uint64_t cache_hits = 0;    // cumulative for the run, not per-iteration
  std::uint64_t cache_misses = 0;
};

struct SynthesisResult {
  ScoredHandler best;  // distance is over the final validation set
  std::vector<IterationReport> iterations;
  std::size_t candidates_validated = 0;
  std::size_t initial_buckets = 0;
  std::size_t total_sketches = 0;
  std::size_t total_handlers_scored = 0;
  // This run's own memo-cache traffic. Unlike the process-global
  // "synth.cache_hits" obs counter, these stay per-job even when several
  // jobs share one EvalCache through SynthesisOptions::shared_cache.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  bool timed_out = false;
  // True when the run was preempted (deadline, external cancel, or injected
  // fault) and `best` is the best-so-far rather than a completed search.
  bool partial = false;
  // kOk for a completed run; the interrupt class (kTimeout/kCancelled) for a
  // partial one; a hard error (e.g. a corrupted checkpoint) otherwise.
  util::Status status;
  double seconds = 0.0;

  // Rank (1-based) of the bucket with the given label after iteration
  // `iter` (0-based), and the number of buckets scored in that iteration —
  // the "pos. after iteration i" cells of Table 4. nullopt if the bucket
  // was not scored in that iteration (already discarded).
  std::optional<std::pair<std::size_t, std::size_t>> bucket_rank(const std::string& label,
                                                                 std::size_t iter) const;
};

// Shared state for the evaluation fast path, threaded through score_sketch
// by the refinement loop. Null cache disables memoization; an infinite
// abandon_above disables early abandoning. The default-constructed context
// is equivalent to passing none.
struct EvalContext {
  EvalCache* cache = nullptr;      // shared across buckets + iterations
  std::uint64_t fingerprint = 0;   // segment_set_fingerprint(working set)
  // Candidates that cannot beat this distance may be abandoned mid-
  // evaluation. The refinement loop passes the bucket's best-so-far (not the
  // global best: bucket scores feed the top-k ranking, so each bucket's own
  // minimum must stay exact).
  double abandon_above = std::numeric_limits<double>::infinity();
  // Polled once per concretized handler; when set and fired, score_sketch
  // stops early but still returns the best handler it has already scored.
  const util::CancellationToken* cancel = nullptr;
  // Per-run cache tallies (see SynthesisResult::cache_hits). Optional; the
  // shared EvalCache's own counters are global, so attribution to a job has
  // to happen at the probe site.
  std::atomic<std::uint64_t>* cache_hit_tally = nullptr;
  std::atomic<std::uint64_t>* cache_miss_tally = nullptr;
};

// Score one sketch against a working set of segments: concretize (§4.2),
// replay every handler, return the best. `handlers_scored` is incremented
// by the number of concrete handlers evaluated (cache hits included — a hit
// is a scored handler whose distance was reused, keeping the Table 4 / §6
// accounting identical with the fast path on).
//
// With a context: candidates whose true distance is >= ctx->abandon_above
// may come back with distance = +inf instead of their exact score. The
// returned best is exact whenever it beats ctx->abandon_above, which is the
// only case the refinement loop consumes.
ScoredHandler score_sketch(const dsl::ExprPtr& sketch,
                           const std::vector<trace::Segment>& segments,
                           const std::vector<double>& constant_pool,
                           const SynthesisOptions& opts, util::Rng& rng,
                           std::size_t* handlers_scored = nullptr,
                           EvalContext* ctx = nullptr);

// Final validation (§3.2): scores each distinct candidate handler once, in
// candidate order, on `validation`, and returns the first candidate with the
// minimum distance (invalid if there is none). Two handlers are the same
// only if dsl::equal; equal hash_expr values merely bucket them. *validated
// counts the distinct handlers scored.
ScoredHandler validate_candidates(const std::vector<ScoredHandler>& candidates,
                                  const std::vector<trace::Segment>& validation,
                                  const SynthesisOptions& opts, std::size_t* validated);

// Run the full refinement loop over the DSL and segment pool: the one
// driver (run_refinement, synth/shard.hpp) over an in-process ShardEngine.
SynthesisResult synthesize(const dsl::Dsl& dsl, const std::vector<trace::Segment>& segments,
                           const SynthesisOptions& opts = {});

}  // namespace abg::synth
