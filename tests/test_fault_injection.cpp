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

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dsl/known_handlers.hpp"
#include "net/simulator.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "synth/checkpoint.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"
#include "trace/trace_io.hpp"
#include "util/cancellation.hpp"
#include "util/csv.hpp"
#include "util/fault_injection.hpp"
#include "util/json_parse.hpp"
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

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

// Re-serialize a parsed document, so a test can edit a checkpoint through
// the JSON model instead of by byte offsets.
void emit_json(obs::JsonWriter& w, const util::JsonValue& v) {
  switch (v.type()) {
    case util::JsonValue::Type::kNull: w.raw("null"); break;
    case util::JsonValue::Type::kBool: w.value(v.as_bool()); break;
    case util::JsonValue::Type::kNumber: w.value(v.as_double()); break;
    case util::JsonValue::Type::kString: w.value(v.as_string()); break;
    case util::JsonValue::Type::kArray:
      w.begin_array();
      for (const auto& item : v.items()) emit_json(w, item);
      w.end_array();
      break;
    case util::JsonValue::Type::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.members()) {
        w.key(key);
        emit_json(w, member);
      }
      w.end_object();
      break;
  }
}

// The checkpoint a real run leaves after its first iteration (a cancel is
// injected there), as written to `path`.
std::string interrupted_run_checkpoint(const std::string& path) {
  std::remove(path.c_str());
  util::fault::Config cfg;
  cfg.cancel_after_iterations = 1;
  FaultGuard guard(cfg);
  SynthesisOptions opts = quick_opts();
  opts.checkpoint_path = path;
  (void)synthesize(dsl::reno_dsl(), reno_segments(), opts);
  std::string text;
  EXPECT_TRUE(util::read_file(path, &text)) << "no checkpoint at " << path;
  return text;
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

// Every field through save/load with bitwise equality, including the values
// a decimal or fixed-width encoding would get wrong: signed zeros,
// subnormals, infinities, DBL_MAX, RNG words near 2^64, and text that needs
// escaping.
TEST(Checkpoint, SaveLoadRoundTrip) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kSub = std::numeric_limits<double>::denorm_min();
  const std::string kText = std::string("say \"hi\"\\ tab\there\nnew line \xc3\xa9\xff");
  Checkpoint ck;
  ck.pool_fingerprint = ~0ull;
  ck.seed = ~0ull - 1;
  ck.next_iter = 2147483647;
  ck.n = -7;
  ck.k = 0;
  ck.best = {-0.0, kText, "cwnd + " + kText};
  ck.sampler_rng = {{~0ull, ~0ull - 1, (1ull << 53) + 1, 0}, true, -kSub};
  ck.sampler_selected = {0, 9007199254740992ull};
  ck.live = {};
  BucketCheckpoint b;
  b.label = "{+,*," + kText + "}";
  b.sketches = 9007199254740992ull;
  b.stream_hash = ~0ull - 4;
  b.handlers_scored = 1;
  b.exhausted = true;
  b.rng = {{1ull << 63, ~0ull, 12345, ~0ull - 2}, false, std::numeric_limits<double>::max()};
  b.best_distance = kInf;
  b.best_sketch = "";
  b.best_handler = kText;
  BucketCheckpoint fresh;  // a bucket's defaults: no best yet, +inf distance
  fresh.label = "{}";
  ck.buckets = {b, fresh};
  ck.candidates = {{2.0, "cwnd * c0", "cwnd * 2"}, {kSub, "s", "h"}, {-kInf, "", kText},
                   {0.0, "\t", "\n"}};
  IterationReport rep;
  rep.n_target = -2147483647 - 1;
  rep.keep = 5;
  rep.segments_used = 3;
  rep.seconds = 0.125;
  rep.best_distance = -std::numeric_limits<double>::max();
  rep.cache_hits = ~0ull;
  rep.cache_misses = (1ull << 53) + 1;
  BucketReport br;
  br.label = kText;
  br.score = -0.0;
  br.sketches_enumerated = 17;
  br.handlers_scored = 0;
  br.exhausted = false;
  br.retained = true;
  rep.buckets = {br, BucketReport{}};
  IterationReport subnormal;
  subnormal.seconds = kSub;
  ck.iterations = {rep, subnormal};

  const std::string path = testing::TempDir() + "/abg_chaos_ckpt.json";
  ASSERT_TRUE(save_checkpoint(ck, path).is_ok());
  auto got = load_checkpoint(path);
  ASSERT_TRUE(got.ok()) << got.status().to_string();

  auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  auto same_rng = [&](const util::Rng::State& a, const util::Rng::State& b) {
    return std::equal(std::begin(a.s), std::end(a.s), std::begin(b.s)) &&
           a.have_cached_normal == b.have_cached_normal && same(a.cached_normal, b.cached_normal);
  };
  auto same_scored = [&](const ScoredHandlerCheckpoint& a, const ScoredHandlerCheckpoint& b) {
    return same(a.distance, b.distance) && a.sketch == b.sketch && a.handler == b.handler;
  };
  EXPECT_EQ(got->pool_fingerprint, ck.pool_fingerprint);
  EXPECT_EQ(got->seed, ck.seed);
  EXPECT_EQ(got->next_iter, ck.next_iter);
  EXPECT_EQ(got->n, ck.n);
  EXPECT_EQ(got->k, ck.k);
  EXPECT_TRUE(same_scored(got->best, ck.best));
  EXPECT_TRUE(same_rng(got->sampler_rng, ck.sampler_rng));
  EXPECT_EQ(got->sampler_selected, ck.sampler_selected);
  EXPECT_EQ(got->live, ck.live);
  ASSERT_EQ(got->buckets.size(), ck.buckets.size());
  for (std::size_t i = 0; i < ck.buckets.size(); ++i) {
    const auto& x = got->buckets[i];
    const auto& y = ck.buckets[i];
    EXPECT_EQ(x.label, y.label) << i;
    EXPECT_EQ(x.sketches, y.sketches) << i;
    EXPECT_EQ(x.stream_hash, y.stream_hash) << i;
    EXPECT_EQ(x.handlers_scored, y.handlers_scored) << i;
    EXPECT_EQ(x.exhausted, y.exhausted) << i;
    EXPECT_TRUE(same_rng(x.rng, y.rng)) << i;
    EXPECT_TRUE(same(x.best_distance, y.best_distance)) << i;
    EXPECT_EQ(x.best_sketch, y.best_sketch) << i;
    EXPECT_EQ(x.best_handler, y.best_handler) << i;
  }
  ASSERT_EQ(got->candidates.size(), ck.candidates.size());
  for (std::size_t i = 0; i < ck.candidates.size(); ++i) {
    EXPECT_TRUE(same_scored(got->candidates[i], ck.candidates[i])) << i;
  }
  ASSERT_EQ(got->iterations.size(), ck.iterations.size());
  for (std::size_t i = 0; i < ck.iterations.size(); ++i) {
    const auto& x = got->iterations[i];
    const auto& y = ck.iterations[i];
    EXPECT_EQ(x.n_target, y.n_target) << i;
    EXPECT_EQ(x.keep, y.keep) << i;
    EXPECT_EQ(x.segments_used, y.segments_used) << i;
    EXPECT_TRUE(same(x.seconds, y.seconds)) << i;
    EXPECT_TRUE(same(x.best_distance, y.best_distance)) << i;
    EXPECT_EQ(x.cache_hits, y.cache_hits) << i;
    EXPECT_EQ(x.cache_misses, y.cache_misses) << i;
    ASSERT_EQ(x.buckets.size(), y.buckets.size()) << i;
    for (std::size_t j = 0; j < y.buckets.size(); ++j) {
      EXPECT_EQ(x.buckets[j].label, y.buckets[j].label);
      EXPECT_TRUE(same(x.buckets[j].score, y.buckets[j].score));
      EXPECT_EQ(x.buckets[j].sketches_enumerated, y.buckets[j].sketches_enumerated);
      EXPECT_EQ(x.buckets[j].handlers_scored, y.buckets[j].handlers_scored);
      EXPECT_EQ(x.buckets[j].exhausted, y.buckets[j].exhausted);
      EXPECT_EQ(x.buckets[j].retained, y.buckets[j].retained);
    }
  }
}

TEST(Checkpoint, MissingFileIsIoErrorAndGarbageIsParseError) {
  auto missing = load_checkpoint(testing::TempDir() + "/abg_no_such_ckpt.json");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);

  // Well-formed JSON with the right format tag, but a garbage field.
  const std::string path = testing::TempDir() + "/abg_bad_ckpt.json";
  write_text(path, R"({"format": "abagnale-checkpoint v2", "pool_fingerprint": "not-a-number"})");
  auto bad = load_checkpoint(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);

  // The retired tab-separated format is refused by name; no v1 reader is kept.
  write_text(path,
             "abagnale-checkpoint v1\npool_fp\t1\nseed\t5\nnext_iter\t1\nn\t6\nk\t3\n"
             "best\tinf\t\t\nsampler_rng\t1\t2\t3\t4\t0\t0x0p+0\nsampler_selected\n"
             "live\nbuckets\t0\ncandidates\t0\niterations\t0\n");
  auto v1 = load_checkpoint(path);
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.status().code(), StatusCode::kParseError);
  EXPECT_NE(v1.status().message().find("abagnale-checkpoint v1"), std::string::npos)
      << v1.status().to_string();
}

// A torn or truncated file is a classified error, never a crash: every
// 97th-byte prefix of a real checkpoint (the empty one included) is
// kParseError.
TEST(Checkpoint, EveryTruncatedPrefixIsParseError) {
  const std::string path = testing::TempDir() + "/abg_prefix_ckpt.json";
  const std::string text = interrupted_run_checkpoint(path);
  ASSERT_GT(text.size(), 97u * 4);
  for (std::size_t len = 0; len < text.size(); len += 97) {
    write_text(path, text.substr(0, len));
    auto loaded = load_checkpoint(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << len;
  }
  write_text(path, text);
  EXPECT_TRUE(load_checkpoint(path).ok());
}

// A candidate with a blank handler field parses (empty texts are legal for
// a bucket with no best yet), but every candidate is replayed by final
// validation, so resume must reject it instead of dereferencing a null
// handler later.
TEST(Checkpoint, BlankCandidateHandlerIsParseErrorNotCrash) {
  const std::string path = testing::TempDir() + "/abg_blank_cand_ckpt.json";
  auto doc = util::parse_json(interrupted_run_checkpoint(path));
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  // Rebuild the document with the first candidate's handler blanked (its
  // distance and sketch kept).
  bool blanked = false;
  std::vector<std::pair<std::string, util::JsonValue>> members;
  for (const auto& [key, value] : doc->members()) {
    if (key != "candidates" || value.items().empty()) {
      members.emplace_back(key, value);
      continue;
    }
    std::vector<util::JsonValue> cands = value.items();
    std::vector<std::pair<std::string, util::JsonValue>> first;
    for (const auto& [k, v] : cands[0].members()) {
      first.emplace_back(k, k == "handler" ? util::JsonValue::string("") : v);
    }
    cands[0] = util::JsonValue::object(std::move(first));
    members.emplace_back(key, util::JsonValue::array(std::move(cands)));
    blanked = true;
  }
  ASSERT_TRUE(blanked) << "checkpoint has no candidate";
  obs::JsonWriter w;
  emit_json(w, util::JsonValue::object(std::move(members)));
  write_text(path, w.take());
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

TEST(Checkpoint, ResumeRejectsCorruptedStreamHash) {
  const std::string ckpt = testing::TempDir() + "/abg_stream_hash_ckpt.json";
  (void)interrupted_run_checkpoint(ckpt);
  auto ck = load_checkpoint(ckpt);
  ASSERT_TRUE(ck.ok()) << ck.status().to_string();
  auto held = std::find_if(ck->buckets.begin(), ck->buckets.end(),
                           [](const BucketCheckpoint& b) { return b.sketches > 0; });
  ASSERT_NE(held, ck->buckets.end());
  EXPECT_NE(held->stream_hash, 0u);
  held->stream_hash ^= 1;
  ASSERT_TRUE(save_checkpoint(*ck, ckpt).is_ok());

  SynthesisOptions opts = quick_opts();
  opts.checkpoint_path = ckpt;
  opts.resume = true;
  auto result = synthesize(dsl::reno_dsl(), reno_segments(), opts);
  EXPECT_EQ(result.status.code(), StatusCode::kParseError) << result.status.to_string();
  EXPECT_NE(result.status.message().find("stream hash"), std::string::npos)
      << result.status.to_string();
  EXPECT_NE(result.status.message().find(held->label), std::string::npos)
      << result.status.to_string();
  EXPECT_FALSE(result.best.valid());
  std::remove(ckpt.c_str());
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
