// Chaos tests (ISSUE 3): drive the pipeline under injected I/O failures,
// NaN corruption, forced cancellation, and deadlines, and assert that every
// degradation path surfaces as a tagged Status / partial result — never a
// crash, a hang, or a silently wrong answer. Also the checkpoint/resume
// golden test: an interrupted-and-resumed run must be bit-identical to an
// uninterrupted one.
//
// These live in their own executable (abg_tests_chaos) so CI can run them
// with ABG_FAULT_INJECT set without perturbing the deterministic suites.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "dsl/known_handlers.hpp"
#include "net/simulator.hpp"
#include "obs/registry.hpp"
#include "synth/checkpoint.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"
#include "trace/trace_io.hpp"
#include "util/cancellation.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace abg::synth {
namespace {

using util::StatusCode;

// Every test restores a clean injector so ordering cannot leak faults into
// a later test (set_config overrides ABG_FAULT_INJECT for this process).
struct FaultGuard {
  explicit FaultGuard(const util::fault::Config& cfg) { util::fault::set_config(cfg); }
  ~FaultGuard() { util::fault::set_config({}); }
};

std::vector<trace::Segment> reno_segments() {
  static const auto segments = [] {
    trace::Environment env;
    env.bandwidth_bps = 10e6;
    env.rtt_s = 0.04;
    env.duration_s = 10.0;
    env.seed = 21;
    auto t = net::run_connection("reno", env);
    return trace::segment_all({trace::trim_warmup(t, 2.0)}, 20);
  }();
  return segments;
}

SynthesisOptions quick_opts() {
  SynthesisOptions o;
  o.initial_samples = 6;
  o.initial_keep = 3;
  o.initial_segments = 2;
  o.concretize_budget = 12;
  o.max_iterations = 3;
  o.exhaustive_cap = 60;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.max_holes = 2;
  o.threads = 2;
  o.seed = 5;
  return o;
}

trace::Trace small_trace() {
  trace::Trace t;
  t.cca_name = "test";
  for (int i = 0; i < 30; ++i) {
    trace::AckSample s;
    s.sig.now = 0.01 * i;
    s.sig.mss = 1448.0;
    s.sig.cwnd = 1448.0 * (10 + i);
    s.sig.acked_bytes = 1448.0;
    s.sig.rtt = 0.05;
    s.cwnd_after = s.sig.cwnd + 1448.0;
    t.samples.push_back(s);
  }
  return t;
}

TEST(FaultInjection, ParsesSpec) {
  auto cfg = util::fault::parse_spec("io=0.25, nan=0.5, cancel_after=3, seed=9, bogus=1");
  EXPECT_DOUBLE_EQ(cfg.io_fail_prob, 0.25);
  EXPECT_DOUBLE_EQ(cfg.nan_prob, 0.5);
  EXPECT_EQ(cfg.cancel_after_iterations, 3);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_TRUE(cfg.any());
  EXPECT_FALSE(util::fault::parse_spec("").any());
}

TEST(FaultInjection, IoFaultSurfacesAsIoError) {
  util::fault::Config cfg;
  cfg.io_fail_prob = 1.0;  // deterministic: every I/O call fails
  FaultGuard guard(cfg);
  const auto injected_before = obs::counter("fault.io_injected").value();
  const std::string path = testing::TempDir() + "/abg_chaos_io.csv";
  auto st = trace::save_csv(small_trace(), path);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  auto loaded = trace::load_csv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_GE(obs::counter("fault.io_injected").value(), injected_before + 2);
}

TEST(FaultInjection, NanCorruptionNeverEscapesReplay) {
  util::fault::Config cfg;
  cfg.nan_prob = 0.2;
  cfg.seed = 3;
  FaultGuard guard(cfg);
  auto segs = reno_segments();
  ASSERT_FALSE(segs.empty());
  const auto held_before = obs::counter("synth.nonfinite_cwnd").value();
  const auto& handler = *dsl::known_handlers("reno").fine_tuned;
  for (const auto& seg : segs) {
    for (double v : replay(handler, seg)) EXPECT_TRUE(std::isfinite(v));
  }
  // With 20% corruption over whole segments, some injections must have fired
  // and each one must have been absorbed by the hold-previous-cwnd guard.
  EXPECT_GT(obs::counter("fault.nan_injected").value(), 0u);
  EXPECT_GT(obs::counter("synth.nonfinite_cwnd").value(), held_before);
}

TEST(FaultInjection, ForcedCancelYieldsPartialResult) {
  util::fault::Config cfg;
  cfg.cancel_after_iterations = 1;
  FaultGuard guard(cfg);
  auto result = synthesize(dsl::reno_dsl(), reno_segments(), quick_opts());
  EXPECT_TRUE(result.partial);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(result.best.valid());  // best-so-far, not nothing
  EXPECT_GE(result.iterations.size(), 1u);
}

TEST(Cancellation, ExternalTokenPreempts) {
  util::CancellationToken tok;
  tok.cancel();  // worst case: cancelled before the search even starts
  SynthesisOptions opts = quick_opts();
  opts.cancel = &tok;
  auto result = synthesize(dsl::reno_dsl(), reno_segments(), opts);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  // The first iteration still runs to completion so the caller gets a
  // usable best-so-far (same contract as an expired deadline).
  EXPECT_TRUE(result.best.valid());
}

TEST(Cancellation, DeadlinePreemptsWithinBudget) {
  // A configuration that would run for minutes uninterrupted.
  SynthesisOptions opts;
  opts.initial_samples = 32;
  opts.concretize_budget = 48;
  opts.max_depth = 4;
  opts.max_nodes = 9;
  opts.max_holes = 3;
  opts.threads = 2;
  opts.seed = 5;
  opts.timeout_s = 2.0;
  const auto start = std::chrono::steady_clock::now();
  auto result = synthesize(dsl::reno_dsl(), reno_segments(), opts);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_TRUE(result.timed_out);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.status.code(), StatusCode::kTimeout);
  EXPECT_TRUE(result.best.valid());
  // The watchdog + per-candidate polling must land well inside 1.2x the
  // deadline (plus slack for the in-flight candidate on a loaded machine).
  EXPECT_LT(elapsed, opts.timeout_s * 1.2 + 0.75);
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  Checkpoint ck;
  ck.pool_fingerprint = 0xdeadbeefcafef00dull;
  ck.seed = 42;
  ck.next_iter = 3;
  ck.n = 384;
  ck.k = 1;
  ck.best = {1.25e-3, "cwnd + c0 * reno-inc", "cwnd + 0.5 * reno-inc"};
  ck.sampler_rng = {{1, 2, 3, 4}, true, -0.75};
  ck.sampler_selected = {4, 0, 7};
  ck.live = {2};
  BucketCheckpoint b;
  b.label = "{+,*}";
  b.sketches = 17;
  b.handlers_scored = 204;
  b.exhausted = true;
  b.rng = {{9, 8, 7, 6}, false, 0.0};
  b.best_distance = 0.5;
  b.best_sketch = "cwnd + c0";
  b.best_handler = "cwnd + 1";
  ck.buckets.push_back(b);
  ck.candidates.push_back({2.0, "cwnd * c0", "cwnd * 2"});
  IterationReport rep;
  rep.n_target = 48;
  rep.keep = 2;
  rep.segments_used = 4;
  rep.seconds = 0.125;
  BucketReport br;
  br.label = "{+,*}";
  br.score = 0.5;
  br.sketches_enumerated = 17;
  br.handlers_scored = 204;
  br.exhausted = true;
  br.retained = true;
  rep.buckets.push_back(br);
  ck.iterations.push_back(rep);

  const std::string path = testing::TempDir() + "/abg_chaos_ckpt.txt";
  ASSERT_TRUE(save_checkpoint(ck, path).is_ok());
  auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->pool_fingerprint, ck.pool_fingerprint);
  EXPECT_EQ(loaded->seed, 42u);
  EXPECT_EQ(loaded->next_iter, 3);
  EXPECT_EQ(loaded->n, 384);
  EXPECT_EQ(loaded->k, 1);
  EXPECT_EQ(loaded->best.distance, 1.25e-3);  // bit-exact via hex floats
  EXPECT_EQ(loaded->best.handler, "cwnd + 0.5 * reno-inc");
  EXPECT_EQ(loaded->sampler_rng.s[3], 4u);
  EXPECT_TRUE(loaded->sampler_rng.have_cached_normal);
  EXPECT_EQ(loaded->sampler_rng.cached_normal, -0.75);
  EXPECT_EQ(loaded->sampler_selected, (std::vector<std::size_t>{4, 0, 7}));
  EXPECT_EQ(loaded->live, (std::vector<std::size_t>{2}));
  ASSERT_EQ(loaded->buckets.size(), 1u);
  EXPECT_EQ(loaded->buckets[0].label, "{+,*}");
  EXPECT_EQ(loaded->buckets[0].sketches, 17u);
  EXPECT_TRUE(loaded->buckets[0].exhausted);
  EXPECT_EQ(loaded->buckets[0].rng.s[0], 9u);
  ASSERT_EQ(loaded->candidates.size(), 1u);
  EXPECT_EQ(loaded->candidates[0].handler, "cwnd * 2");
  ASSERT_EQ(loaded->iterations.size(), 1u);
  EXPECT_EQ(loaded->iterations[0].n_target, 48);
  EXPECT_EQ(loaded->iterations[0].seconds, 0.125);
  ASSERT_EQ(loaded->iterations[0].buckets.size(), 1u);
  EXPECT_TRUE(loaded->iterations[0].buckets[0].retained);
}

TEST(Checkpoint, MissingFileIsIoErrorAndGarbageIsParseError) {
  auto missing = load_checkpoint(testing::TempDir() + "/abg_no_such_ckpt.txt");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);

  const std::string path = testing::TempDir() + "/abg_bad_ckpt.txt";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("abagnale-checkpoint v1\npool_fp not-a-number\n", f);
  std::fclose(f);
  auto bad = load_checkpoint(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
}

// A candidate with a blank handler field parses (empty texts are legal for
// a bucket with no best yet), but every candidate is replayed by final
// validation, so resume must reject it instead of dereferencing a null
// handler later.
TEST(Checkpoint, BlankCandidateHandlerIsParseErrorNotCrash) {
  const std::string path = testing::TempDir() + "/abg_blank_cand_ckpt.txt";
  std::remove(path.c_str());
  {
    util::fault::Config cfg;
    cfg.cancel_after_iterations = 1;
    FaultGuard guard(cfg);
    SynthesisOptions opts = quick_opts();
    opts.checkpoint_path = path;
    (void)synthesize(dsl::reno_dsl(), reno_segments(), opts);
  }
  std::ifstream in(path);
  std::string text, line;
  bool blanked = false;
  while (std::getline(in, line)) {
    if (!blanked && line.rfind("cand\t", 0) == 0) {
      line.erase(line.rfind('\t') + 1);  // keep distance and sketch, drop the handler
      blanked = true;
    }
    text += line + "\n";
  }
  in.close();
  ASSERT_TRUE(blanked) << "checkpoint has no candidate line";
  std::ofstream(path, std::ios::trunc) << text;
  ASSERT_TRUE(load_checkpoint(path).ok());  // well-formed file, bad content

  SynthesisOptions opts = quick_opts();
  opts.checkpoint_path = path;
  opts.resume = true;
  auto result = synthesize(dsl::reno_dsl(), reno_segments(), opts);
  EXPECT_EQ(result.status.code(), StatusCode::kParseError) << result.status.to_string();
  EXPECT_FALSE(result.best.valid());
}

TEST(Checkpoint, ResumeIsBitIdenticalToUninterruptedRun) {
  auto segs = reno_segments();
  SynthesisOptions opts = quick_opts();
  const std::string ckpt = testing::TempDir() + "/abg_resume_ckpt.txt";
  std::remove(ckpt.c_str());

  // Run A: uninterrupted reference.
  auto a = synthesize(dsl::reno_dsl(), segs, opts);
  ASSERT_TRUE(a.best.valid());
  ASSERT_GE(a.iterations.size(), 2u) << "config too small to exercise resume";

  // Run B: checkpointing, killed by an injected cancel at iteration 1.
  {
    util::fault::Config cfg;
    cfg.cancel_after_iterations = 1;
    FaultGuard guard(cfg);
    SynthesisOptions bopts = opts;
    bopts.checkpoint_path = ckpt;
    auto b = synthesize(dsl::reno_dsl(), segs, bopts);
    EXPECT_TRUE(b.partial);
    EXPECT_LT(b.iterations.size(), a.iterations.size());
  }

  // Run C: resume from B's checkpoint, no faults.
  SynthesisOptions copts = opts;
  copts.checkpoint_path = ckpt;
  copts.resume = true;
  auto c = synthesize(dsl::reno_dsl(), segs, copts);
  ASSERT_TRUE(c.status.is_ok()) << c.status.to_string();
  ASSERT_TRUE(c.best.valid());

  // Bit-identical final state: winning handler, its distance, and the full
  // iteration-report history.
  EXPECT_EQ(dsl::to_string(*c.best.handler), dsl::to_string(*a.best.handler));
  EXPECT_EQ(c.best.distance, a.best.distance);
  ASSERT_EQ(c.iterations.size(), a.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const auto& ia = a.iterations[i];
    const auto& ic = c.iterations[i];
    EXPECT_EQ(ic.n_target, ia.n_target);
    EXPECT_EQ(ic.keep, ia.keep);
    EXPECT_EQ(ic.segments_used, ia.segments_used);
    ASSERT_EQ(ic.buckets.size(), ia.buckets.size());
    for (std::size_t j = 0; j < ia.buckets.size(); ++j) {
      EXPECT_EQ(ic.buckets[j].label, ia.buckets[j].label);
      EXPECT_EQ(ic.buckets[j].score, ia.buckets[j].score);
      EXPECT_EQ(ic.buckets[j].sketches_enumerated, ia.buckets[j].sketches_enumerated);
      EXPECT_EQ(ic.buckets[j].retained, ia.buckets[j].retained);
    }
  }
}

TEST(Checkpoint, ResumeRejectsMismatchedSeed) {
  auto segs = reno_segments();
  const std::string ckpt = testing::TempDir() + "/abg_mismatch_ckpt.txt";
  std::remove(ckpt.c_str());
  {
    util::fault::Config cfg;
    cfg.cancel_after_iterations = 1;
    FaultGuard guard(cfg);
    SynthesisOptions opts = quick_opts();
    opts.checkpoint_path = ckpt;
    (void)synthesize(dsl::reno_dsl(), segs, opts);
  }
  SynthesisOptions opts = quick_opts();
  opts.checkpoint_path = ckpt;
  opts.resume = true;
  opts.seed = 6;  // different search, same checkpoint file
  auto result = synthesize(dsl::reno_dsl(), segs, opts);
  ASSERT_FALSE(result.status.is_ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidTrace);
  EXPECT_FALSE(result.best.valid());
}

TEST(Checkpoint, ResumeWithoutFileStartsFresh) {
  SynthesisOptions opts = quick_opts();
  opts.checkpoint_path = testing::TempDir() + "/abg_fresh_ckpt.txt";
  opts.resume = true;
  std::remove(opts.checkpoint_path.c_str());
  auto result = synthesize(dsl::reno_dsl(), reno_segments(), opts);
  EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_TRUE(result.best.valid());
  std::remove(opts.checkpoint_path.c_str());
}

// The CI chaos job runs this whole binary with ABG_FAULT_INJECT set; this
// test additionally stirs the probabilistic I/O and NaN faults through the
// end-to-end paths and accepts any outcome that is a clean tagged Status.
TEST(ChaosSmoke, PipelineSurvivesProbabilisticFaults) {
  util::fault::Config cfg = util::fault::config();
  if (!cfg.any()) {
    cfg = util::fault::parse_spec("io=0.1,nan=0.05,seed=13");
  }
  cfg.cancel_after_iterations = -1;  // cancel is covered deterministically above
  FaultGuard guard(cfg);

  const std::string path = testing::TempDir() + "/abg_chaos_smoke.csv";
  const auto t = small_trace();
  for (int round = 0; round < 20; ++round) {
    auto st = trace::save_csv(t, path);
    if (!st.is_ok()) {
      EXPECT_EQ(st.code(), StatusCode::kIoError);
      continue;
    }
    auto loaded = trace::load_csv(path);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
      continue;
    }
    EXPECT_EQ(loaded->samples.size(), t.samples.size());
  }

  // Replay under NaN corruption must stay finite no matter what.
  const auto& handler = *dsl::known_handlers("reno").fine_tuned;
  for (const auto& seg : reno_segments()) {
    for (double v : replay(handler, seg)) EXPECT_TRUE(std::isfinite(v));
  }

  // A short synthesis must complete (or cancel cleanly) without crashing.
  auto result = synthesize(dsl::reno_dsl(), reno_segments(), quick_opts());
  EXPECT_TRUE(result.best.valid());
  if (!result.status.is_ok()) {
    EXPECT_TRUE(result.partial);
  }
}

}  // namespace
}  // namespace abg::synth
