// End-to-end synthesis tests. These run the full refinement loop on real
// simulator traces with deliberately small search bounds so the suite stays
// fast; the full-size runs live in bench/.
#include <gtest/gtest.h>

#include "dsl/known_handlers.hpp"
#include "net/simulator.hpp"
#include "obs/registry.hpp"
#include "synth/buckets.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"
#include "synth/shard.hpp"

namespace abg::synth {
namespace {

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

TEST(ScoreSketch, FindsBestConstantForRenoSketch) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 2u);
  // Sketch: cwnd + c * reno-inc; the pool contains good and bad constants.
  auto sketch = dsl::add(dsl::sig(dsl::Signal::kCwnd),
                         dsl::mul(dsl::hole(0), dsl::sig(dsl::Signal::kRenoInc)));
  SynthesisOptions opts = quick_opts();
  util::Rng rng(3);
  std::size_t scored = 0;
  auto best = score_sketch(sketch, {segs[0], segs[1]}, {0.001, 1.0, 100.0}, opts, rng, &scored);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(scored, 3u);
  // The winning constant must be the sane one.
  EXPECT_NE(dsl::to_string(*best.handler).find("1 "), std::string::npos);
}

TEST(ScoreSketch, HoleFreeSketchScoresOnce) {
  auto segs = reno_segments();
  auto handler = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kRenoInc));
  SynthesisOptions opts = quick_opts();
  util::Rng rng(3);
  std::size_t scored = 0;
  auto best = score_sketch(handler, {segs[0]}, dsl::default_constant_pool(), opts, rng, &scored);
  EXPECT_EQ(scored, 1u);
  EXPECT_TRUE(best.valid());
}

TEST(Synthesize, RecoversRenoFamilyHandler) {
  auto segs = reno_segments();
  ASSERT_GE(segs.size(), 3u);
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  ASSERT_TRUE(result.best.valid());
  // The recovered handler must track the trace at least as well as the
  // domain expert's fine-tuned expression on the final working set.
  const auto& fine_tuned = *dsl::known_handlers("reno").fine_tuned;
  const double ft = total_distance(fine_tuned, segs, distance::Metric::kDtw);
  const double got = total_distance(*result.best.handler, segs, distance::Metric::kDtw);
  EXPECT_LT(got, 3.0 * ft) << dsl::to_string(*result.best.handler);
  // Structure check: it must grow from cwnd (the Reno-variant shape).
  const auto sigs = dsl::signals_used(*result.best.handler);
  EXPECT_TRUE(std::find(sigs.begin(), sigs.end(), dsl::Signal::kCwnd) != sigs.end() ||
              std::find(sigs.begin(), sigs.end(), dsl::Signal::kRenoInc) != sigs.end());
}

TEST(Synthesize, ReportsIterations) {
  auto segs = reno_segments();
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  ASSERT_FALSE(result.iterations.empty());
  const auto& it0 = result.iterations.front();
  EXPECT_EQ(it0.n_target, 6);
  EXPECT_EQ(it0.keep, 3);
  EXPECT_EQ(it0.segments_used, 2u);
  EXPECT_EQ(it0.buckets.size(), result.initial_buckets);
  // Scores ascend.
  for (std::size_t i = 1; i < it0.buckets.size(); ++i) {
    EXPECT_LE(it0.buckets[i - 1].score, it0.buckets[i].score);
  }
  // Retained set is a prefix-by-score superset of k (ties allowed).
  std::size_t retained = 0;
  for (const auto& b : it0.buckets) retained += b.retained;
  EXPECT_GE(retained, 1u);
}

TEST(Synthesize, IterationGrowsNAndShrinksK) {
  auto segs = reno_segments();
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  if (result.iterations.size() >= 2) {
    EXPECT_EQ(result.iterations[1].n_target, 6 * 8);
    EXPECT_LE(result.iterations[1].keep, 3);
    EXPECT_GE(result.iterations[1].segments_used, result.iterations[0].segments_used);
    EXPECT_LE(result.iterations[1].buckets.size(), result.iterations[0].buckets.size());
  }
}

TEST(Synthesize, BucketRankLocatesTargetBucket) {
  auto segs = reno_segments();
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  const auto target = bucket_of(*dsl::to_sketch(dsl::known_handlers("reno").fine_tuned));
  auto rank = result.bucket_rank(target.label, 0);
  ASSERT_TRUE(rank.has_value());
  EXPECT_GE(rank->first, 1u);
  EXPECT_LE(rank->first, rank->second);
  EXPECT_FALSE(result.bucket_rank("{nonexistent}", 0).has_value());
  EXPECT_FALSE(result.bucket_rank(target.label, 99).has_value());
}

TEST(Synthesize, TimeoutReturnsBestSoFar) {
  auto segs = reno_segments();
  SynthesisOptions opts = quick_opts();
  opts.timeout_s = 0.0;  // expire immediately after the first iteration
  auto result = synthesize(dsl::reno_dsl(), segs, opts);
  EXPECT_TRUE(result.timed_out);
  EXPECT_TRUE(result.best.valid());  // still returns the best found (§4.4)
}

TEST(Synthesize, DeterministicForSameSeed) {
  auto segs = reno_segments();
  SynthesisOptions opts = quick_opts();
  opts.threads = 3;  // determinism must hold regardless of scheduling
  auto a = synthesize(dsl::reno_dsl(), segs, opts);
  auto b = synthesize(dsl::reno_dsl(), segs, opts);
  ASSERT_TRUE(a.best.valid() && b.best.valid());
  EXPECT_EQ(dsl::to_string(*a.best.handler), dsl::to_string(*b.best.handler));
  EXPECT_DOUBLE_EQ(a.best.distance, b.best.distance);
}

TEST(Synthesize, CountsWorkDone) {
  auto segs = reno_segments();
  auto result = synthesize(dsl::reno_dsl(), segs, quick_opts());
  EXPECT_GT(result.total_sketches, 0u);
  EXPECT_GT(result.total_handlers_scored, result.total_sketches / 2);
  EXPECT_GT(result.seconds, 0.0);
}

// A fresh search state for `label` under `opts` (the refinement loop's seed).
BucketSearchState bucket_state(const dsl::Dsl& d, const std::string& label,
                               const SynthesisOptions& opts) {
  BucketSearchState st;
  for (auto& b : make_buckets(d)) {
    if (b.label == label) st.bucket = std::move(b);
  }
  st.rng = util::Rng(bucket_rng_seed(label, opts.seed));
  return st;
}

TEST(BucketLifecycle, ReleasedEnumeratorContinuesExactly) {
  const auto reno = dsl::reno_dsl();
  const SynthesisOptions opts = quick_opts();
  const auto never = [] { return false; };
  BucketSearchState ref = bucket_state(reno, "{+,*}", opts);
  ASSERT_FALSE(ref.bucket.label.empty());
  ASSERT_TRUE(enumerate_bucket_sketches(reno, opts, ref, 16, never).is_ok());
  ASSERT_EQ(ref.sketches.size(), 16u);

  auto& enumerated = obs::counter("synth.sketches_enumerated");
  BucketSearchState st = bucket_state(reno, "{+,*}", opts);
  ASSERT_TRUE(enumerate_bucket_sketches(reno, opts, st, 8, never).is_ok());
  st.enumerator.reset();
  const auto before = enumerated.value();
  ASSERT_TRUE(enumerate_bucket_sketches(reno, opts, st, 16, never).is_ok());
  // The rebuilt enumerator skips the 8 held sketches without counting them.
  EXPECT_EQ(enumerated.value() - before, 8u);
  ASSERT_EQ(st.sketches.size(), ref.sketches.size());
  for (std::size_t i = 0; i < ref.sketches.size(); ++i) {
    EXPECT_EQ(dsl::to_string(*st.sketches[i]), dsl::to_string(*ref.sketches[i])) << i;
  }
}

// A lease taken again once its stream is gone re-derives the held prefix
// with a fresh producer, counted once in synth.streams_rederived. A lease
// that finds the stream live re-derives nothing, and a bucket that takes no
// new sketch leases nothing.
TEST(BucketLifecycle, ReleasedStreamRederivesItsPrefixOnce) {
  const auto reno = dsl::reno_dsl();
  const SynthesisOptions opts = quick_opts();
  const auto never = [] { return false; };
  const auto always = [] { return true; };
  auto& rederived = obs::counter("synth.streams_rederived");
  auto& built = obs::counter("synth.enumerators_built");
  BucketSearchState st = bucket_state(reno, "{+,*}", opts);
  ASSERT_TRUE(enumerate_bucket_sketches(reno, opts, st, 8, never).is_ok());
  st.enumerator.reset();  // the stream's last lease
  const auto rederived0 = rederived.value();
  const auto built0 = built.value();

  // An interrupted pass takes no sketch from a bucket that holds some.
  ASSERT_TRUE(enumerate_bucket_sketches(reno, opts, st, 16, always).is_ok());
  EXPECT_EQ(st.sketches.size(), 8u);
  EXPECT_EQ(st.enumerator, nullptr);
  EXPECT_EQ(built.value(), built0);

  ASSERT_TRUE(enumerate_bucket_sketches(reno, opts, st, 16, never).is_ok());
  EXPECT_EQ(st.sketches.size(), 16u);
  EXPECT_EQ(rederived.value() - rederived0, 1u);
  EXPECT_EQ(built.value() - built0, 1u);

  // Resumed beside st's live lease, the prefix is the stream's as it stands.
  const BucketCheckpoint ck = bucket_state_to_checkpoint(st);
  BucketSearchState resumed = bucket_state(reno, "{+,*}", opts);
  ASSERT_TRUE(bucket_state_from_checkpoint(reno, opts, ck, &resumed).is_ok());
  EXPECT_EQ(rederived.value() - rederived0, 1u);
  // With no lease left, resuming re-derives it.
  st.enumerator.reset();
  resumed.enumerator.reset();
  ASSERT_TRUE(bucket_state_from_checkpoint(reno, opts, ck, &resumed).is_ok());
  EXPECT_EQ(rederived.value() - rederived0, 2u);
  EXPECT_EQ(built.value() - built0, 2u);
}

TEST(BucketLifecycle, DivergentHeldSketchIsAClassifiedError) {
  const auto reno = dsl::reno_dsl();
  const SynthesisOptions opts = quick_opts();
  const auto never = [] { return false; };
  BucketSearchState st = bucket_state(reno, "{+,*}", opts);
  ASSERT_TRUE(enumerate_bucket_sketches(reno, opts, st, 8, never).is_ok());
  st.enumerator.reset();
  // Not a {+,*} sketch, so the re-derived one can never equal it.
  st.sketches[3] = dsl::sig(dsl::Signal::kCwnd);
  const auto status = enumerate_bucket_sketches(reno, opts, st, 16, never);
  EXPECT_EQ(status.code(), util::StatusCode::kParseError) << status.to_string();
  EXPECT_NE(status.message().find("sketch 3"), std::string::npos) << status.to_string();
  EXPECT_EQ(st.sketches.size(), 8u);
}

TEST(BucketLifecycle, RestoreChecksTheStreamHash) {
  const auto reno = dsl::reno_dsl();
  const SynthesisOptions opts = quick_opts();
  const auto never = [] { return false; };
  BucketSearchState st = bucket_state(reno, "{+,*}", opts);
  ASSERT_TRUE(enumerate_bucket_sketches(reno, opts, st, 8, never).is_ok());
  const BucketCheckpoint ck = bucket_state_to_checkpoint(st);
  EXPECT_EQ(ck.stream_hash, sketch_stream_hash(st.sketches));
  EXPECT_NE(ck.stream_hash, 0u);

  BucketSearchState restored = bucket_state(reno, "{+,*}", opts);
  ASSERT_TRUE(bucket_state_from_checkpoint(reno, opts, ck, &restored).is_ok());
  ASSERT_EQ(restored.sketches.size(), 8u);
  // Taken from the stream st still leases: the same objects.
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(restored.sketches[i], st.sketches[i]) << i;

  BucketCheckpoint corrupt = ck;
  corrupt.stream_hash ^= 1ull << 63;
  const auto status = bucket_state_from_checkpoint(reno, opts, corrupt, &restored);
  EXPECT_EQ(status.code(), util::StatusCode::kParseError) << status.to_string();
  EXPECT_NE(status.message().find("stream hash"), std::string::npos) << status.to_string();
  // A bucket with no sketches records the empty stream's hash, 0.
  BucketCheckpoint empty = ck;
  empty.sketches = 0;
  EXPECT_EQ(bucket_state_from_checkpoint(reno, opts, empty, &restored).code(),
            util::StatusCode::kParseError);
  empty.stream_hash = 0;
  EXPECT_TRUE(bucket_state_from_checkpoint(reno, opts, empty, &restored).is_ok());
}

TEST(BucketLifecycle, OnlySizeFeasibleBucketsBuildZ3AndNoneOutliveTheRun) {
  // bench_sec61's quick-scale bounds: 18 of the 128 reno buckets fit in 7
  // nodes.
  SynthesisOptions opts = quick_opts();
  opts.max_nodes = 7;
  opts.max_holes = 3;
  opts.initial_samples = 2;
  opts.concretize_budget = 4;
  opts.max_iterations = 2;
  opts.exhaustive_cap = 8;
  auto& built = obs::counter("synth.enumerators_built");
  auto& rederived = obs::counter("synth.streams_rederived");
  auto& build_us = obs::histogram("synth.enum_build_us");
  auto& teardown_us = obs::histogram("synth.enum_teardown_us");
  const auto built0 = built.value();
  const auto rederived0 = rederived.value();
  const auto build0 = build_us.count();
  const auto teardown0 = teardown_us.count();
  const auto result = synthesize(dsl::reno_dsl(), reno_segments(), opts);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.initial_buckets, 128u);
  // Every producer past the first 18 re-derives the prefix of a bucket whose
  // producer the pool's width dropped.
  EXPECT_EQ((built.value() - built0) - (rederived.value() - rederived0), 18u);
  EXPECT_EQ(build_us.count() - build0, built.value() - built0);
  EXPECT_EQ(teardown_us.count() - teardown0, built.value() - built0);
}

}  // namespace
}  // namespace abg::synth
