#include "synth/shard.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "dsl/parse.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace_events.hpp"

namespace abg::synth {

std::uint64_t bucket_rng_seed(const std::string& label, std::uint64_t seed) {
  std::uint64_t h = seed ^ 0xcbf29ce484222325ull;
  for (char c : label) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ull;
  return h;
}

distance::DistanceOptions effective_distance_options(const SynthesisOptions& opts) {
  return opts.dopts;
}

std::uint32_t journal_job_id(const SynthesisOptions& opts) {
  for (const auto& [key, value] : opts.obs_labels) {
    if (key == "job") return obs::journal_intern(value);
  }
  return 0;
}

namespace {

EnumeratorOptions bucket_enumerator_options(const SynthesisOptions& opts, const Bucket& bucket) {
  EnumeratorOptions eopts;
  eopts.unit_check = opts.unit_check;
  eopts.bucket = bucket.ops;
  eopts.max_holes = opts.max_holes;
  eopts.max_depth = opts.max_depth;
  eopts.max_nodes = opts.max_nodes;
  return eopts;
}

// synth.streams_rederived: leases that had to derive a held prefix again
// with a fresh producer (a pass re-leasing a dropped bucket, checkpoint
// resume, worker adoption). Registered with the first producer.
obs::Counter& streams_rederived() {
  static auto& c = obs::counter("synth.streams_rederived");
  return c;
}

// Check that the sketches st holds are its stream's first ones, producing
// them if the stream is new. A held sketch that is an equal tree but not the
// stream's own object is swapped for the stream's, so the next check is a
// pointer comparison. Counts only into synth.streams_rederived, and journals
// nothing.
util::Status check_held_sketches(BucketSearchState& st) {
  bool rederived = false;
  for (std::size_t i = st.enumerator->shared_prefix(st.sketches); i < st.sketches.size(); ++i) {
    bool produced = false;
    auto s = st.enumerator->at(i, &produced);
    if (produced && !std::exchange(rederived, true)) streams_rederived().add();
    if (!s) {
      return util::Status(util::StatusCode::kParseError,
                          "bucket " + st.bucket.label + " holds " +
                              std::to_string(st.sketches.size()) +
                              " sketches but its stream ends after " + std::to_string(i));
    }
    if (!dsl::equal(**s, *st.sketches[i])) {
      return util::Status(util::StatusCode::kParseError,
                          "bucket " + st.bucket.label + " sketch " + std::to_string(i) +
                              " diverged: held '" + dsl::to_string(*st.sketches[i]) +
                              "', re-derived '" + dsl::to_string(**s) + "'");
    }
    st.sketches[i] = std::move(*s);
  }
  return util::Status::ok();
}

}  // namespace

void ensure_bucket_enumerator(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                              BucketSearchState& st) {
  if (st.enumerator || st.exhausted) return;
  st.enumerator = SketchStream::lease(dsl, bucket_enumerator_options(opts, st.bucket));
}

util::Status enumerate_bucket_sketches(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                                       BucketSearchState& st, std::size_t target,
                                       const std::function<bool()>& stop) {
  static auto& c_sketches = obs::counter("synth.sketches_enumerated");
  static auto& c_shared = obs::counter("synth.stream_sketches_shared");
  if (st.exhausted || st.sketches.size() >= target) return util::Status::ok();
  // An interrupted pass takes no new sketch from a bucket that holds some,
  // so it leases nothing: a dropped bucket would re-derive its whole prefix
  // only to take none.
  if (!st.sketches.empty() && stop()) return util::Status::ok();
  ensure_bucket_enumerator(dsl, opts, st);
  if (auto s = check_held_sketches(st); !s.is_ok()) return s;
  // Always enumerate at least one sketch so an expired budget still returns
  // the best handler seen (§4.4's interrupt semantics).
  while (st.sketches.size() < target && (st.sketches.empty() || !stop())) {
    bool produced = false;
    auto s = st.enumerator->at(st.sketches.size(), &produced);
    if (!s) {
      st.exhausted = true;
      break;
    }
    c_sketches.add();
    if (!produced) c_shared.add();
    // Journaled under the caller's provenance (the pass task's bucket
    // scope; no scope, no event).
    if (obs::journal_enabled()) obs::journal_record_sketch(dsl::hash_expr(**s));
    st.sketches.push_back(std::move(*s));
  }
  return util::Status::ok();
}

ScoredHandler score_bucket_pass(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                                BucketSearchState& st,
                                const std::vector<trace::Segment>& working, EvalContext* ctx,
                                const std::function<bool()>& stop) {
  ScoredHandler bucket_best;
  const std::size_t scored_before = st.handlers_scored;
  for (const auto& sk : st.sketches) {
    // Bound by this bucket's own best, not the global one: the per-bucket
    // minimum feeds the top-k ranking and must stay exact.
    if (ctx) ctx->abandon_above = bucket_best.distance;
    auto scored =
        score_sketch(sk, working, dsl.constant_pool, opts, st.rng, &st.handlers_scored, ctx);
    if (scored.distance < bucket_best.distance) bucket_best = scored;
    if (stop() && bucket_best.valid()) break;
  }
  // Counted from the bucket's own tally, so the registry and the per-bucket
  // fields cannot drift (test_obs asserts they agree). Final validation
  // scores through score_sketch too and stays uncounted.
  static auto& c_scored = obs::counter("synth.handlers_scored");
  c_scored.add(st.handlers_scored - scored_before);
  st.best = bucket_best;
  return bucket_best;
}

util::Result<ScoredHandler> parse_scored_handler(double distance, const std::string& sketch_text,
                                                 const std::string& handler_text) {
  ScoredHandler sh;
  sh.distance = distance;
  if (!sketch_text.empty()) {
    auto p = dsl::parse(sketch_text);
    if (!p) {
      return util::Status(util::StatusCode::kParseError,
                          "unparseable sketch text '" + sketch_text + "'");
    }
    sh.sketch = p.expr;
  }
  if (!handler_text.empty()) {
    auto p = dsl::parse(handler_text);
    if (!p) {
      return util::Status(util::StatusCode::kParseError,
                          "unparseable handler text '" + handler_text + "'");
    }
    sh.handler = p.expr;
  }
  return sh;
}

BucketCheckpoint bucket_state_to_checkpoint(const BucketSearchState& st) {
  BucketCheckpoint b;
  b.label = st.bucket.label;
  b.sketches = st.sketches.size();
  b.stream_hash = sketch_stream_hash(st.sketches);
  b.handlers_scored = st.handlers_scored;
  b.exhausted = st.exhausted;
  b.rng = st.rng.state();
  b.best_distance = st.best.distance;
  b.best_sketch = st.best.sketch ? dsl::to_string(*st.best.sketch) : std::string();
  b.best_handler = st.best.handler ? dsl::to_string(*st.best.handler) : std::string();
  return b;
}

util::Status bucket_state_from_checkpoint(const dsl::Dsl& dsl, const SynthesisOptions& opts,
                                          const BucketCheckpoint& ck, BucketSearchState* st) {
  st->handlers_scored = ck.handlers_scored;
  st->exhausted = ck.exhausted;
  st->rng.set_state(ck.rng);
  auto best = parse_scored_handler(ck.best_distance, ck.best_sketch, ck.best_handler);
  if (!best.ok()) return best.status().with_context("bucket " + ck.label);
  st->best = *best;
  // Sketches are not deserialized: the bucket's stream is deterministic, so
  // its first ck.sketches are the list. Taking them does NOT count into
  // synth.sketches_enumerated; the original enumeration already did.
  st->sketches.clear();
  st->enumerator.reset();
  if (ck.sketches > 0) {
    st->enumerator = SketchStream::lease(dsl, bucket_enumerator_options(opts, st->bucket));
    st->enumerator->copy_prefix(ck.sketches, &st->sketches);
  }
  bool rederived = false;
  while (st->sketches.size() < ck.sketches) {
    bool produced = false;
    auto s = st->enumerator->at(st->sketches.size(), &produced);
    if (produced && !std::exchange(rederived, true)) streams_rederived().add();
    if (!s) {
      return util::Status(util::StatusCode::kParseError,
                          "bucket " + ck.label + " records " + std::to_string(ck.sketches) +
                              " sketches but its stream holds only " +
                              std::to_string(st->sketches.size()));
    }
    st->sketches.push_back(std::move(*s));
  }
  // A different Z3 build could derive a different stream of the same length.
  if (const std::uint64_t h = sketch_stream_hash(st->sketches); h != ck.stream_hash) {
    return util::Status(util::StatusCode::kParseError,
                        "bucket " + ck.label + " stream hash mismatch over " +
                            std::to_string(ck.sketches) + " sketches: recorded " +
                            std::to_string(ck.stream_hash) + ", this process derives " +
                            std::to_string(h));
  }
  return util::Status::ok();
}

ShardEngine::ShardEngine(dsl::Dsl dsl, const std::vector<trace::Segment>& segments,
                         SynthesisOptions opts)
    : dsl_(std::move(dsl)), segments_(segments), opts_(std::move(opts)) {
  pool_ = opts_.pool;
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(
        opts_.threads == 0 ? std::thread::hardware_concurrency() : opts_.threads);
    pool_ = owned_pool_.get();
  }
  // A caller-supplied shared cache extends reuse across jobs; entries are
  // exact, so sharing never changes a result.
  cache_ = opts_.shared_cache != nullptr ? opts_.shared_cache : &owned_cache_;
  journal_ = opts_.journal && obs::journal_enabled();
  if (journal_) journal_job_ = journal_job_id(opts_);
  for (auto& b : make_buckets(dsl_)) bucket_defs_.emplace(b.label, std::move(b));
}

ShardEngine::~ShardEngine() {
  std::vector<State*> held;
  for (auto& [label, st] : states_) {
    if (st.enumerator) held.push_back(&st);
  }
  pool_->parallel_for(held.size(), [&](std::size_t i) { held[i]->enumerator.reset(); });
}

util::Status ShardEngine::add_bucket(const std::string& label) {
  BucketCheckpoint fresh;
  fresh.label = label;
  fresh.rng = util::Rng(bucket_rng_seed(label, opts_.seed)).state();
  return adopt_bucket(fresh);
}

util::Status ShardEngine::adopt_bucket(const BucketCheckpoint& ck) {
  auto it = bucket_defs_.find(ck.label);
  if (it == bucket_defs_.end()) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "DSL '" + dsl_.name + "' has no bucket '" + ck.label + "'");
  }
  State st;
  st.bucket = it->second;
  if (auto s = bucket_state_from_checkpoint(dsl_, opts_, ck, &st); !s.is_ok()) return s;
  states_.erase(ck.label);
  states_.emplace(ck.label, std::move(st));
  return util::Status::ok();
}

bool ShardEngine::has_bucket(const std::string& label) const {
  return states_.count(label) != 0;
}

util::Status ShardEngine::load(const std::vector<BucketCheckpoint>& states,
                               const util::CancellationToken*) {
  for (const auto& ck : states) {
    if (auto st = adopt_bucket(ck); !st.is_ok()) return st;
  }
  return util::Status::ok();
}

void ShardEngine::cache_tallies(std::uint64_t* hits, std::uint64_t* misses) {
  *hits = cache_hits_.load(std::memory_order_relaxed);
  *misses = cache_misses_.load(std::memory_order_relaxed);
}

util::Result<std::vector<BucketOutcome>> ShardEngine::run_pass(const PassRequest& req) {
  std::vector<State*> named;  // in req.labels order
  named.reserve(req.labels.size());
  for (const auto& label : req.labels) {
    auto it = states_.find(label);
    if (it == states_.end()) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "shard does not own bucket '" + label + "'");
    }
    named.push_back(&it->second);
  }
  std::vector<trace::Segment> working;
  for (std::size_t idx : req.working) {
    if (idx >= segments_.size()) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "working index " + std::to_string(idx) + " out of range (pool has " +
                              std::to_string(segments_.size()) + " segments)");
    }
    working.push_back(segments_[idx]);
  }
  if (working.empty()) working = segments_;  // tiny pools: use everything
  const util::CancellationToken* cancel = req.cancel;
  auto stop = [cancel] { return cancel != nullptr && cancel->cancelled(); };
  const std::uint64_t fingerprint = opts_.use_eval_cache ? segment_set_fingerprint(working) : 0;
  // Set by any bucket that completes this pass with a valid best, for the
  // interrupted-skip below.
  std::atomic<bool> pass_found{false};
  // Held enumerators of buckets this pass does not name (the driver's top-k
  // cut) are released by extra tasks after the pass's own.
  std::vector<State*> idle;
  for (auto& [label, st] : states_) {
    if (st.enumerator &&
        std::find(req.labels.begin(), req.labels.end(), label) == req.labels.end()) {
      idle.push_back(&st);
    }
  }
  std::vector<util::Status> failures(req.labels.size());
  // The buckets that finished scoring, by live index, kept ranked by
  // (post-pass best, live index). Two rules drop a finished bucket's lease:
  //
  // - Certain cut. Once req.keep of them have finished, a finished bucket
  //   whose best is strictly worse than the keep-th best among them is
  //   certain to be cut: the finished buckets are a subset of the live ones,
  //   and the keep-th smallest over a subset is never below the one over all
  //   of them. Ties are held; a best is never NaN (score_bucket_pass keeps a
  //   strict minimum from +inf).
  // - Pool width. Only the P = pool_->size() best-ranked finished lease
  //   holders keep theirs. A holder that P others outrank is outranked by P
  //   holders at the end of the pass too (a holder dropped later is dropped
  //   for P better ones), so the held set a pass leaves is the best P of its
  //   finished holders, whatever the task timing. A later pass that names a
  //   dropped bucket leases it again and re-derives its held prefix
  //   (check_held_sketches).
  //
  // The leases move out under the mutex and are torn down by the finishing
  // task after it is released (`dropped` is declared before the lock).
  std::mutex finished_mu;
  std::vector<std::size_t> finished;
  const std::size_t width = pool_->size();
  auto finish = [&](std::size_t i) {
    std::vector<std::shared_ptr<SketchStream>> dropped;
    std::lock_guard lk(finished_mu);
    finished.push_back(i);
    std::sort(finished.begin(), finished.end(), [&](std::size_t a, std::size_t b) {
      return std::pair(named[a]->best.distance, a) < std::pair(named[b]->best.distance, b);
    });
    const double bound = req.keep != 0 && finished.size() >= req.keep
                             ? named[finished[req.keep - 1]]->best.distance
                             : std::numeric_limits<double>::infinity();
    std::size_t held = 0;
    for (std::size_t f : finished) {
      State& fs = *named[f];
      if (!fs.enumerator) continue;
      if (fs.best.distance > bound || held == width) {
        dropped.push_back(std::move(fs.enumerator));
      } else {
        ++held;
      }
    }
  };

  pool_->parallel_for(req.labels.size() + idle.size(), [&](std::size_t i) {
    if (i >= req.labels.size()) {
      idle[i - req.labels.size()]->enumerator.reset();
      return;
    }
    State& st = *named[i];
    obs::Span span("score " + st.bucket.label, "synth");
    // A preempted run that already has a best skips the remaining buckets
    // outright: building their enumerators just to honor the one-sketch
    // minimum would stretch the deadline by seconds.
    if (stop() && (req.have_best || pass_found.load(std::memory_order_acquire))) return;
    // Installed inside the task, so a pool worker that steals it
    // self-attributes to this run.
    std::optional<obs::JournalScope> jscope;
    if (journal_) {
      if (st.journal_bucket == 0) st.journal_bucket = obs::journal_intern(st.bucket.label);
      jscope.emplace(journal_job_, st.journal_bucket, static_cast<std::uint32_t>(req.iter));
    }
    failures[i] = enumerate_bucket_sketches(dsl_, opts_, st, req.target, stop);
    if (!failures[i].is_ok()) return;
    if (st.exhausted) st.enumerator.reset();
    EvalContext ctx;
    ctx.cache = opts_.use_eval_cache ? cache_ : nullptr;
    ctx.fingerprint = fingerprint;
    ctx.cancel = cancel;
    ctx.cache_hit_tally = &cache_hits_;
    ctx.cache_miss_tally = &cache_misses_;
    const ScoredHandler best = score_bucket_pass(dsl_, opts_, st, working, &ctx, stop);
    finish(i);
    if (!best.valid()) return;
    pass_found.store(true, std::memory_order_release);
    if (jscope && best.sketch) {
      // This iteration's bucket winner (the run winner is recorded by the
      // driver after final validation).
      obs::journal_record_selected(dsl::hash_expr(*best.sketch), best.fingerprint, best.distance,
                                   obs::journal_intern(dsl::to_string(*best.handler)), false);
    }
  });

  for (const auto& f : failures) {
    if (!f.is_ok()) return f;
  }
  std::vector<BucketOutcome> out;
  out.reserve(req.labels.size());
  for (const State* st : named) out.push_back({bucket_state_to_checkpoint(*st), st->best});
  return out;
}

}  // namespace abg::synth
