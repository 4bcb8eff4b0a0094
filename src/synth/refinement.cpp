#include "synth/refinement.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "dsl/parse.hpp"
#include "dsl/simplify.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "obs/trace_events.hpp"
#include "dsl/bytecode.hpp"
#include "synth/batch_eval.hpp"
#include "synth/checkpoint.hpp"
#include "synth/replay.hpp"
#include "synth/shard.hpp"
#include "trace/sampler.hpp"
#include "util/fault_injection.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace abg::synth {

namespace {

// One candidate of the batched scoring window (ISSUE 7). Candidates join
// the window in enumeration order; cache hits arrive with their distance,
// misses stay pending until a lane-batch flush evaluates them.
struct BatchEntry {
  const std::vector<double>* assign = nullptr;
  dsl::ExprPtr handler;
  std::uint64_t fp = 0;
  dsl::ExprPtr canon;          // only with a cache
  std::size_t canon_hash = 0;  // only with a cache
  double d = std::numeric_limits<double>::infinity();
  bool pending = false;
};

}  // namespace

util::Status SynthesisOptions::validate() const {
  auto bad = [](const std::string& msg) {
    return util::Status(util::StatusCode::kInvalidArgument, msg);
  };
  auto require_min = [&](long long v, long long min, const char* field) {
    return v < min ? bad(std::string(field) + " must be >= " + std::to_string(min) + ", got " +
                         std::to_string(v))
                   : util::Status::ok();
  };
  if (auto st = require_min(initial_samples, 1, "initial_samples"); !st.is_ok()) return st;
  if (auto st = require_min(initial_keep, 1, "initial_keep"); !st.is_ok()) return st;
  if (auto st = require_min(initial_segments, 1, "initial_segments"); !st.is_ok()) return st;
  if (auto st = require_min(static_cast<long long>(final_validation_segments), 1,
                            "final_validation_segments");
      !st.is_ok()) {
    return st;
  }
  if (auto st = require_min(sample_growth, 1, "sample_growth"); !st.is_ok()) return st;
  if (auto st = require_min(static_cast<long long>(concretize_budget), 1, "concretize_budget");
      !st.is_ok()) {
    return st;
  }
  if (auto st = require_min(max_iterations, 1, "max_iterations"); !st.is_ok()) return st;
  if (auto st = require_min(static_cast<long long>(exhaustive_cap), 1, "exhaustive_cap");
      !st.is_ok()) {
    return st;
  }
  if (auto st = require_min(max_holes, 0, "max_holes"); !st.is_ok()) return st;
  if (max_depth && *max_depth < 1) return bad("max_depth must be >= 1 when set");
  if (max_nodes && *max_nodes < 1) return bad("max_nodes must be >= 1 when set");
  if (std::isnan(timeout_s) || timeout_s < 0.0) {
    return bad("timeout_s must be >= 0 (0 = expire immediately, infinity = no deadline)");
  }
  if (dopts.max_points < 2) return bad("dopts.max_points must be >= 2");
  if (resume && checkpoint_path.empty()) {
    return bad("resume requires a checkpoint_path to restore from");
  }
  return util::Status::ok();
}

// Candidates are scored in lane batches. Selection is bit-identical
// to a one-candidate-at-a-time loop for every result the refinement loop
// consumes: pending candidates are evaluated against the cutoff as it stood
// when their window opened (c0), which can only make their distance MORE
// exact than a per-candidate loop's (+inf from a tighter mid-window bound),
// and the contract already allows exact-or-+inf above the caller's bound.
// Best/cutoff updates happen in an in-order walk at flush, so the winner and
// the cutoff entering every later window are those of the sequential loop
// (ScoreSketch.MatchesTreeWalkOracle and the golden fast-path test pin this).
ScoredHandler score_sketch(const dsl::ExprPtr& sketch,
                           const std::vector<trace::Segment>& segments,
                           const std::vector<double>& constant_pool,
                           const SynthesisOptions& opts, util::Rng& rng,
                           std::size_t* handlers_scored, EvalContext* ctx) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ScoredHandler best;
  best.sketch = sketch;
  EvalCache* cache = ctx ? ctx->cache : nullptr;
  // The effective abandon bound: candidates must beat both the caller's
  // bucket-best and this sketch's own running best to matter. Tightens as
  // better candidates land; never loosens. Inert (always +inf) when the
  // option is off.
  const bool abandon = opts.early_abandon;
  double cutoff = (abandon && ctx) ? ctx->abandon_above : kInf;
  ConcretizeOptions copts;
  copts.budget = opts.concretize_budget;
  const auto assignments = enumerate_assignments(*sketch, constant_pool, copts, rng);
  // Journal identity: the sketch stored in the bucket state is the enumerator's
  // canonical form, so hashing it directly matches the kSketch event the
  // enumerator recorded. Fingerprints then pin each hole assignment.
  const bool jrn = obs::journal_in_scope();
  const std::uint64_t sketch_hash = jrn ? dsl::hash_expr(*sketch) : 0;

  // Compiled once per sketch; every lane of every window reuses it. The
  // observed series are candidate-independent, so they are shared too.
  std::optional<dsl::Program> prog;
  std::vector<std::vector<double>> observed;

  std::vector<BatchEntry> window;
  window.reserve(2 * dsl::kBatchLanes);
  std::size_t n_pending = 0;

  auto flush = [&] {
    if (!window.empty() && n_pending > 0) {
      std::vector<const std::vector<double>*> lanes;
      std::vector<std::size_t> lane_entry;
      lanes.reserve(n_pending);
      lane_entry.reserve(n_pending);
      for (std::size_t i = 0; i < window.size(); ++i) {
        if (window[i].pending) {
          lanes.push_back(window[i].assign);
          lane_entry.push_back(i);
        }
      }
      if (!prog) prog.emplace(dsl::compile(*sketch));
      if (observed.empty() && !segments.empty()) {
        observed.reserve(segments.size());
        for (const auto& seg : segments) observed.push_back(observed_series_pkts(seg));
      }
      // All lanes replay under the window-entry cutoff c0: a sequential loop
      // would have tightened it mid-window, but a looser bound only turns
      // would-be +inf results exact (see the contract note above).
      const double c0 = cutoff;
      const bool bounded = std::isfinite(c0);
      std::vector<std::vector<std::vector<double>>> synth(segments.size());
      for (std::size_t s = 0; s < segments.size(); ++s) {
        replay_batch(*prog, lanes, segments[s], {}, &synth[s]);
      }
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        BatchEntry& e = window[lane_entry[k]];
        // Re-open the candidate's journal bracket so this lane's DTW detail
        // events (and the cell tally) attribute to it.
        if (jrn) obs::journal_begin_candidate(sketch_hash, e.fp);
        double sum = 0.0;
        bool abandoned = false;
        for (std::size_t s = 0; s < segments.size(); ++s) {
          if (obs::journal_enabled()) obs::journal_set_segment(static_cast<std::uint32_t>(s));
          sum += distance::compute(opts.metric, synth[s][k], observed[s], opts.dopts,
                                   bounded ? c0 - sum : distance::kNoAbandon);
          if (bounded && sum >= c0) {
            static auto& c_ab = obs::counter("synth.distance_abandons");
            c_ab.add();
            abandoned = true;
            break;
          }
        }
        const double d = abandoned ? kInf : sum;
        // Only exact values may be shared: a result at or above the cutoff
        // can be a truncated lower bound from an abandoned evaluation.
        if (cache && d < c0) {
          cache->insert(ctx->fingerprint, e.canon_hash, std::move(e.canon), d);
        }
        if (jrn) {
          obs::journal_record_candidate(std::isfinite(d) ? obs::JournalKind::kEvaluated
                                                         : obs::JournalKind::kAbandoned,
                                        d, obs::journal_take_cells());
          obs::journal_end_candidate();
        }
        e.d = d;
        e.pending = false;
      }
    }
    // In-order walk: the first minimum wins, tie-breaks included, exactly as
    // in a sequential loop over the assignments.
    for (const auto& e : window) {
      if (e.d < best.distance) {
        best.distance = e.d;
        best.handler = e.handler;
        best.fingerprint = e.fp;
        if (abandon) cutoff = std::min(cutoff, e.d);
      }
    }
    window.clear();
    n_pending = 0;
  };

  for (const auto& assign : assignments) {
    if (ctx && ctx->cancel && ctx->cancel->cancelled()) {
      // Settle the in-flight window first — its candidates are already in
      // the journal funnel and must reach a terminal — then stop as soon as
      // a valid best exists; the caller keeps the best-so-far.
      flush();
      if (best.valid()) break;
    }
    std::uint64_t fp = 0;
    if (jrn) {
      // kEnumerated at the same point as ++*handlers_scored, so the funnel's
      // top reconciles exactly with total_handlers_scored.
      fp = obs::journal_fingerprint(sketch_hash, assign);
      obs::journal_begin_candidate(sketch_hash, fp);
      obs::journal_record_candidate(obs::JournalKind::kEnumerated, cutoff, 0);
    }
    BatchEntry e;
    e.assign = &assign;
    e.handler = dsl::fill_holes(sketch, assign);
    e.fp = fp;
    bool cached = false;
    if (cache) {
      e.canon = dsl::canonicalize(e.handler);
      e.canon_hash = dsl::hash_expr(*e.canon);
      // A hit records the candidate's kCacheHit terminal inside lookup().
      if (auto hit = cache->lookup(ctx->fingerprint, e.canon_hash, *e.canon)) {
        e.d = *hit;
        cached = true;
      }
      // Per-run attribution (SynthesisResult::cache_hits): the cache's own
      // tallies are instance-wide, which conflates jobs once the engine
      // shares one cache across a batch.
      if (cached && ctx->cache_hit_tally) {
        ctx->cache_hit_tally->fetch_add(1, std::memory_order_relaxed);
      } else if (!cached && ctx->cache_miss_tally) {
        ctx->cache_miss_tally->fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (jrn) obs::journal_end_candidate();
    if (handlers_scored) ++*handlers_scored;
    if (!cached) {
      e.pending = true;
      ++n_pending;
    }
    window.push_back(std::move(e));
    if (n_pending >= dsl::kBatchLanes) flush();
  }
  flush();
  return best;
}

std::optional<std::pair<std::size_t, std::size_t>> SynthesisResult::bucket_rank(
    const std::string& label, std::size_t iter) const {
  if (iter >= iterations.size()) return std::nullopt;
  const auto& buckets = iterations[iter].buckets;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].label == label) return std::make_pair(i + 1, buckets.size());
  }
  return std::nullopt;
}

ScoredHandler validate_candidates(const std::vector<ScoredHandler>& candidates,
                                  const std::vector<trace::Segment>& validation,
                                  const SynthesisOptions& opts, std::size_t* validated) {
  // Each distinct candidate is scored as a hole-free sketch, through the
  // compiled replay and per-segment abandon loop of the refinement passes.
  // The running winner's distance is the abandon bound: a candidate cut off
  // there can never beat it, so the winner is the first candidate with the
  // minimum distance, exactly as without the bound.
  std::vector<std::pair<std::size_t, const dsl::Expr*>> seen;  // (hash, handler)
  ScoredHandler winner;
  util::Rng rng(0);  // a hole-free sketch draws no assignment
  for (const auto& c : candidates) {
    const std::size_t h = dsl::hash_expr(*c.handler);
    if (std::any_of(seen.begin(), seen.end(), [&](const auto& s) {
          return s.first == h && dsl::equal(*s.second, *c.handler);
        })) {
      continue;
    }
    seen.emplace_back(h, c.handler.get());
    EvalContext ctx;
    ctx.abandon_above = winner.distance;
    const double d = score_sketch(c.handler, validation, {}, opts, rng, nullptr, &ctx).distance;
    if (d < winner.distance) {
      winner = c;
      winner.distance = d;
    }
  }
  *validated = seen.size();
  return winner;
}

SynthesisResult run_refinement(const dsl::Dsl& dsl, const std::vector<trace::Segment>& segments,
                               const SynthesisOptions& opts, PassExecutor& exec) {
  util::Stopwatch total_clock;
  SynthesisResult result;

  // Eager options validation (ISSUE 4): a bad knob fails here, before any
  // enumerator or checkpoint work, with the field named in the status.
  if (auto st = opts.validate(); !st.is_ok()) {
    result.status = st.with_context("SynthesisOptions");
    return result;
  }

  // All interrupt sources — the deadline watchdog, a caller-supplied token,
  // and injected faults — funnel into one local token polled at every safe
  // point below. First cancel wins and carries the reason (kTimeout vs
  // kCancelled) into result.status.
  util::CancellationToken tok(opts.cancel);
  util::DeadlineWatchdog watchdog(&tok, opts.timeout_s);
  auto interrupted = [&] { return tok.cancelled(); };
  auto mark_interrupted = [&] {
    result.partial = true;
    result.timed_out = tok.reason() == util::StatusCode::kTimeout;
    result.status = util::Status(tok.reason(), "synthesis interrupted; returning best-so-far");
  };

  // --- Bucketize the space (§4.4). Each bucket's committed state is the
  // checkpoint of its last completed pass. ----------------------------------
  const std::vector<Bucket> buckets = make_buckets(dsl);
  std::vector<BucketCheckpoint> committed;
  for (const auto& b : buckets) {
    BucketCheckpoint ck;
    ck.label = b.label;
    ck.rng = util::Rng(bucket_rng_seed(b.label, opts.seed)).state();
    committed.push_back(std::move(ck));
  }
  result.initial_buckets = buckets.size();

  // --- Segment working set (§3.2). -----------------------------------------
  const auto seg_distance = [&](const trace::Segment& a, const trace::Segment& b) {
    return distance::compute(opts.metric, observed_series_pkts(a), observed_series_pkts(b),
                             opts.dopts);
  };
  trace::SegmentSampler sampler(&segments, seg_distance, opts.seed ^ 0x5e95a1d3);
  // The initial grow_to happens after the resume block below: a restored
  // sampler already contains its selection and RNG position.

  std::vector<ScoredHandler> candidates;  // every bucket-best ever seen
  int n = opts.initial_samples;
  int k = opts.initial_keep;
  std::vector<std::size_t> live(buckets.size());
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;

  // --- Checkpoint save/restore (ISSUE 3). One file format for every
  // executor, so a job resumes in-process or on a worker fleet alike. -------
  const std::uint64_t pool_fingerprint =
      opts.checkpoint_path.empty() ? 0 : segment_set_fingerprint(segments);
  auto expr_text = [](const dsl::ExprPtr& e) { return e ? dsl::to_string(*e) : std::string(); };
  // Serialize the complete loop state so a resumed run is bit-identical to
  // an uninterrupted one. Called only between iterations.
  auto save_state = [&](int next_iter) {
    Checkpoint ck;
    ck.pool_fingerprint = pool_fingerprint;
    ck.seed = opts.seed;
    ck.next_iter = next_iter;
    ck.n = n;
    ck.k = k;
    ck.best = {result.best.distance, expr_text(result.best.sketch), expr_text(result.best.handler)};
    ck.sampler_rng = sampler.rng_state();
    ck.sampler_selected = sampler.selected();
    ck.live = live;
    ck.buckets = committed;
    for (const auto& c : candidates) {
      ck.candidates.push_back({c.distance, expr_text(c.sketch), expr_text(c.handler)});
    }
    ck.iterations = result.iterations;
    if (auto st = save_checkpoint(ck, opts.checkpoint_path); !st.is_ok()) {
      // A failed checkpoint write must not kill the search itself; the
      // previous checkpoint (if any) is still intact thanks to tmp+rename.
      ABG_WARN("checkpoint save failed: %s", st.to_string().c_str());
    }
  };

  int start_iter = 0;
  bool resumed = false;
  if (opts.resume && !opts.checkpoint_path.empty()) {
    auto loaded = load_checkpoint(opts.checkpoint_path);
    if (!loaded.ok() && loaded.status().code() == util::StatusCode::kIoError) {
      // Missing/unreadable file: nothing to resume from, start fresh. This is
      // the normal first run of a `--checkpoint X --resume` batch job.
      ABG_INFO("no checkpoint at %s; starting fresh", opts.checkpoint_path.c_str());
    } else if (!loaded.ok()) {
      result.status = loaded.status().with_context("resume");
      return result;
    } else {
      const Checkpoint& ck = *loaded;
      if (ck.pool_fingerprint != pool_fingerprint || ck.seed != opts.seed) {
        result.status = util::Status(util::StatusCode::kInvalidTrace,
                                     "checkpoint was written for a different segment pool or seed");
        return result;
      }
      bool consistent = ck.buckets.size() == buckets.size();
      for (std::size_t idx : ck.live) consistent = consistent && idx < buckets.size();
      for (const auto& bc : ck.buckets) {
        auto it = std::find_if(committed.begin(), committed.end(),
                               [&](const BucketCheckpoint& c) { return c.label == bc.label; });
        if (it == committed.end()) {
          consistent = false;
          break;
        }
        *it = bc;
      }
      auto restore_scored = [&](const ScoredHandlerCheckpoint& c) {
        auto r = parse_scored_handler(c.distance, c.sketch, c.handler);
        if (!r.ok()) {
          consistent = false;
          return ScoredHandler{};
        }
        return *r;
      };
      ScoredHandler best = restore_scored(ck.best);
      for (const auto& c : ck.candidates) {
        candidates.push_back(restore_scored(c));
        // Every candidate is a bucket best that had a handler; final
        // validation replays each one.
        consistent = consistent && candidates.back().valid();
      }
      if (!consistent) {
        result.status = util::Status(util::StatusCode::kParseError,
                                     "corrupted checkpoint " + opts.checkpoint_path);
        return result;
      }
      result.best = std::move(best);
      start_iter = ck.next_iter;
      n = ck.n;
      k = ck.k;
      live = ck.live;
      result.iterations = ck.iterations;
      sampler.restore(ck.sampler_selected, ck.sampler_rng);
      resumed = true;
      ABG_INFO("resumed from %s at iteration %d (%zu live buckets)",
               opts.checkpoint_path.c_str(), start_iter, live.size());
    }
  }
  if (!resumed) sampler.grow_to(static_cast<std::size_t>(opts.initial_segments));
  // Sketch lists are re-derived, not deserialized: a resumed bucket takes
  // its recorded count from its stream and checks the recorded hash. A
  // failed load reports nothing restored, as the other resume guards do.
  if (auto st = exec.load(committed, &tok); !st.is_ok()) {
    result.status = st;
    result.best = ScoredHandler{};
    result.iterations.clear();
    return result;
  }

  static auto& c_iters = obs::counter("synth.iterations");
  static auto& h_iter = obs::histogram("synth.iter_us");
  const bool journal_run = opts.journal && obs::journal_enabled();

  // Per-job labeled series (function-local statics would pin the first
  // job's labels; these are resolved once per run instead).
  obs::Counter* c_iters_job = nullptr;
  obs::Gauge* g_best_job = nullptr;
  std::vector<obs::Counter*> c_scored_bucket;  // {job=...,bucket=...}, on first pass
  if (!opts.obs_labels.empty()) {
    c_iters_job = &obs::counter("synth.iterations", opts.obs_labels);
    g_best_job = &obs::gauge("synth.best_distance", opts.obs_labels);
    c_scored_bucket.assign(buckets.size(), nullptr);
  }

  // Run one pass over the live buckets and fold it: commit every bucket's
  // post-pass state, then fold the bucket bests into the global best and the
  // candidate list in live order — never in completion order, so
  // equal-distance ties resolve identically however the pass was scheduled.
  auto run_pass = [&](std::size_t target, int iter) -> util::Status {
    PassRequest req;
    for (std::size_t idx : live) req.labels.push_back(buckets[idx].label);
    req.target = target;
    req.working = sampler.selected();
    req.iter = iter;
    // The top-k cut right after this pass; 0 when k keeps every live bucket,
    // as in the terminal phase.
    req.keep = static_cast<std::size_t>(k) < live.size() ? static_cast<std::size_t>(k) : 0;
    req.have_best = result.best.valid();
    req.cancel = &tok;
    auto outcomes = exec.run_pass(req);
    if (!outcomes.ok()) return outcomes.status();
    for (std::size_t i = 0; i < live.size(); ++i) {
      BucketOutcome& o = (*outcomes)[i];
      BucketCheckpoint& prev = committed[live[i]];
      if (!c_scored_bucket.empty()) {
        obs::Counter*& c = c_scored_bucket[live[i]];
        if (c == nullptr) {
          obs::Labels labels = opts.obs_labels;
          labels.emplace_back("bucket", prev.label);
          c = &obs::counter("synth.handlers_scored", labels);
        }
        c->add(o.checkpoint.handlers_scored - prev.handlers_scored);
      }
      prev = std::move(o.checkpoint);
      if (!o.best.valid()) continue;
      if (o.best.distance < result.best.distance) result.best = o.best;
      candidates.push_back(std::move(o.best));
    }
    return util::Status::ok();
  };
  // A failed pass of an interrupted run is the interrupt (a remote pass
  // aborts with the token's reason); anything else is a hard error.
  bool failed = false;
  auto pass_ok = [&](const util::Status& st) {
    if (st.is_ok()) return true;
    if (interrupted()) {
      mark_interrupted();
    } else {
      result.status = st;
      failed = true;
    }
    return false;
  };

  for (int iter = start_iter; iter < opts.max_iterations; ++iter) {
    if (live.empty()) break;
    // Injected-fault hook: ABG_FAULT_INJECT="cancel_after=N" fires here.
    if (util::fault::cancel_at(iter)) tok.cancel(util::StatusCode::kCancelled);
    if (iter > start_iter && interrupted()) {
      mark_interrupted();
      break;
    }
    util::Stopwatch iter_clock;
    c_iters.add();
    if (c_iters_job != nullptr) c_iters_job->add();
    obs::Timer iter_timer(h_iter);
    // One span per refinement iteration, with the loop's control variables
    // attached so a Perfetto view shows N/k/|working| shrinking.
    obs::JsonWriter iter_args;
    iter_args.begin_object();
    iter_args.key("iter");
    iter_args.value(static_cast<std::int64_t>(iter));
    iter_args.key("live_buckets");
    iter_args.value(static_cast<std::uint64_t>(live.size()));
    iter_args.key("n_target");
    iter_args.value(static_cast<std::int64_t>(n));
    iter_args.key("keep");
    iter_args.value(static_cast<std::int64_t>(k));
    iter_args.end_object();
    obs::Span iter_span("synth.iteration", "synth", iter_args.take());

    // Parallel bucket scoring (line 3 of Algorithm 1).
    if (!pass_ok(run_pass(static_cast<std::size_t>(n), iter))) break;

    // Rank buckets by score.
    std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
      return committed[a].best_distance < committed[b].best_distance;
    });

    IterationReport report;
    report.n_target = n;
    report.keep = k;
    report.segments_used = sampler.selected().empty() ? segments.size() : sampler.selected().size();
    for (std::size_t idx : live) {
      BucketReport br;
      br.label = committed[idx].label;
      br.score = committed[idx].best_distance;
      br.sketches_enumerated = committed[idx].sketches;
      br.handlers_scored = committed[idx].handlers_scored;
      br.exhausted = committed[idx].exhausted;
      report.buckets.push_back(std::move(br));
    }

    // only-top-k with ties (§4.4): retain buckets whose score <= k-th score.
    if (static_cast<std::size_t>(k) < live.size()) {
      const double kth = committed[live[static_cast<std::size_t>(k) - 1]].best_distance;
      std::size_t cut = live.size();
      for (std::size_t i = static_cast<std::size_t>(k); i < live.size(); ++i) {
        if (committed[live[i]].best_distance > kth) {
          cut = i;
          break;
        }
      }
      live.resize(cut);
    }
    for (auto& br : report.buckets) {
      br.retained = std::any_of(live.begin(), live.end(), [&](std::size_t idx) {
        return committed[idx].label == br.label;
      });
    }
    report.seconds = iter_clock.elapsed_seconds();
    report.best_distance = result.best.distance;
    exec.cache_tallies(&report.cache_hits, &report.cache_misses);
    if (g_best_job != nullptr) g_best_job->set(report.best_distance);
    result.iterations.push_back(std::move(report));
    // Streamed progress for JobHandle subscribers; runs on this thread so
    // the callback may read the report without synchronization.
    if (opts.on_iteration) opts.on_iteration(result.iterations.back());
    // One funnel sample per iteration on the Perfetto counter tracks
    // (no-op unless both tracing and journaling are armed).
    if (journal_run) obs::journal_emit_trace_counters();

    ABG_INFO("iter %d: %zu buckets live, N=%d, best=%.3f (%s)", iter, live.size(), n,
             result.best.distance,
             result.best.valid() ? dsl::to_string(*result.best.handler).c_str() : "-");

    if (interrupted()) {
      mark_interrupted();
      break;
    }

    // Stop when every live bucket is already exhausted.
    const bool all_done = std::all_of(live.begin(), live.end(),
                                      [&](std::size_t idx) { return committed[idx].exhausted; });
    if (all_done) break;

    // Terminal exhaustive phase: one bucket left.
    if (live.size() == 1) {
      pass_ok(run_pass(opts.exhaustive_cap, iter));
      break;
    }

    n *= opts.sample_growth;                         // line 9
    k = std::max(k / 2, 1);                          // line 10
    sampler.grow_to(sampler.selected().size() + 2);  // "+2 traces" (§4.4)

    // State now describes the start of iteration iter+1 exactly.
    if (!opts.checkpoint_path.empty()) save_state(iter + 1);
  }
  if (failed) return result;

  // --- Final validation: re-rank every candidate on a larger diverse
  // segment sample, so a handler over-fit to the small working set cannot
  // win (§3.2).
  // Skipped on interruption: a preempted run must return promptly, and its
  // partial/status flags tell the caller `best` skipped this re-ranking.
  if (!result.partial && !candidates.empty() && !segments.empty()) {
    obs::Span val_span("synth.validation", "synth");
    static auto& c_validated = obs::counter("synth.candidates_validated");
    sampler.grow_to(opts.final_validation_segments);
    std::vector<trace::Segment> validation;
    for (std::size_t idx : sampler.selected()) validation.push_back(segments[idx]);
    std::size_t validated = 0;
    const ScoredHandler winner = validate_candidates(candidates, validation, opts, &validated);
    result.candidates_validated = validated;
    c_validated.add(validated);
    if (winner.valid()) result.best = winner;
  }

  // The run winner, flagged kJournalFinal. Recorded under a fresh scope
  // (bucket 0 = none, iter = iterations completed) — validation itself is
  // not journaled, so this is the only event past the refinement loop.
  if (journal_run && result.best.valid() && result.best.sketch) {
    obs::JournalScope scope(journal_job_id(opts), 0,
                            static_cast<std::uint32_t>(result.iterations.size()));
    obs::journal_record_selected(dsl::hash_expr(*result.best.sketch), result.best.fingerprint,
                                 result.best.distance,
                                 obs::journal_intern(dsl::to_string(*result.best.handler)),
                                 true);
    obs::journal_emit_trace_counters();
  }

  for (const auto& ck : committed) {
    result.total_sketches += ck.sketches;
    result.total_handlers_scored += ck.handlers_scored;
  }
  exec.cache_tallies(&result.cache_hits, &result.cache_misses);
  result.seconds = total_clock.elapsed_seconds();
  return result;
}

SynthesisResult synthesize(const dsl::Dsl& dsl, const std::vector<trace::Segment>& segments,
                           const SynthesisOptions& opts) {
  // Validate before the executor builds its pool.
  if (auto st = opts.validate(); !st.is_ok()) {
    SynthesisResult result;
    result.status = st.with_context("SynthesisOptions");
    return result;
  }
  ShardEngine local(dsl, segments, opts);
  return run_refinement(dsl, segments, opts, local);
}

}  // namespace abg::synth
