#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dsl/known_handlers.hpp"
#include "dsl/parse.hpp"
#include "dsl/simplify.hpp"
#include "dsl/units.hpp"
#include "net/simulator.hpp"
#include "synth/buckets.hpp"
#include "synth/concretize.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"

namespace abg::synth {
namespace {

trace::Segment make_segment(std::size_t n) {
  trace::Segment seg;
  for (std::size_t i = 0; i < n; ++i) {
    trace::AckSample s;
    s.sig.now = 0.05 * static_cast<double>(i);
    s.sig.mss = 1448.0;
    s.sig.cwnd = 1448.0 * (10.0 + static_cast<double>(i));
    s.sig.acked_bytes = 1448.0;
    s.sig.rtt = 0.05;
    s.sig.srtt = 0.05;
    s.sig.min_rtt = 0.05;
    s.sig.max_rtt = 0.06;
    s.sig.ack_rate = 2e5;
    s.cwnd_after = s.sig.cwnd + 1448.0;  // ground truth: +1 MSS per ACK
    seg.samples.push_back(s);
  }
  return seg;
}

TEST(Replay, ExactHandlerReproducesObservedSeries) {
  auto seg = make_segment(50);
  // Handler identical to the ground truth: cwnd + mss.
  auto h = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kMss));
  const auto synth = replay(*h, seg);
  const auto observed = observed_series_pkts(seg);
  ASSERT_EQ(synth.size(), observed.size());
  for (std::size_t i = 0; i < synth.size(); ++i) {
    EXPECT_NEAR(synth[i], observed[i], 1e-9) << i;
  }
  EXPECT_NEAR(segment_distance(*h, seg, distance::Metric::kDtw), 0.0, 1e-9);
}

TEST(Replay, UsesItsOwnStateNotTheRecordedWindow) {
  auto seg = make_segment(50);
  // Handler that doubles: diverges from the recorded trace immediately and
  // must compound on its *own* window.
  auto h = dsl::mul(dsl::constant(2.0), dsl::sig(dsl::Signal::kCwnd));
  const auto synth = replay(*h, seg);
  EXPECT_NEAR(synth[0], 20.0, 1e-9);   // starts at 10 pkts, doubles per ACK
  EXPECT_NEAR(synth[3], 160.0, 1e-9);  // keeps compounding on its own state
}

TEST(Replay, DupAcksHoldTheWindow) {
  auto seg = make_segment(10);
  seg.samples[4].is_dup = true;
  seg.samples[4].sig.acked_bytes = 0.0;
  auto h = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kMss));
  const auto synth = replay(*h, seg);
  EXPECT_DOUBLE_EQ(synth[4], synth[3]);
}

TEST(Replay, ClampsRunawayHandlers) {
  auto seg = make_segment(30);
  auto h = dsl::mul(dsl::sig(dsl::Signal::kCwnd), dsl::sig(dsl::Signal::kCwnd));
  ReplayOptions opts;
  opts.max_cwnd_pkts = 1000.0;
  const auto synth = replay(*h, seg, opts);
  for (double v : synth) EXPECT_LE(v, 1000.0);
}

TEST(Replay, HoldsOnNonFiniteOutput) {
  auto seg = make_segment(10);
  // cbrt(cwnd - cwnd*...): engineer a NaN via 0/0-free route: use div by
  // (rtt - rtt) -> 0 denominator -> eval yields 0, fine; instead force
  // overflow^3 -> inf.
  auto h = dsl::cube(dsl::cube(dsl::mul(dsl::sig(dsl::Signal::kCwnd),
                                        dsl::sig(dsl::Signal::kCwnd))));
  const auto synth = replay(*h, seg);
  for (double v : synth) EXPECT_TRUE(std::isfinite(v));
}

TEST(Replay, EmptySegmentYieldsEmptySeries) {
  trace::Segment seg;
  auto h = dsl::sig(dsl::Signal::kCwnd);
  EXPECT_TRUE(replay(*h, seg).empty());
}

TEST(Replay, TotalDistanceSumsSegments) {
  auto seg = make_segment(40);
  auto h = dsl::add(dsl::sig(dsl::Signal::kCwnd), dsl::constant(2896.0));  // +2 MSS
  const double one = segment_distance(*h, seg, distance::Metric::kDtw);
  const double two = total_distance(*h, {seg, seg}, distance::Metric::kDtw);
  EXPECT_NEAR(two, 2 * one, 1e-9);
}

TEST(Replay, GroundTruthHandlerBeatsWrongFamilyOnRealTraces) {
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.04;
  env.duration_s = 8.0;
  auto t = net::run_connection("reno", env);
  auto segs = trace::segment_all({trace::trim_warmup(t, 1.0)}, 20);
  ASSERT_FALSE(segs.empty());
  const auto& reno = *dsl::known_handlers("reno").fine_tuned;
  // A constant-window handler is the wrong family.
  auto flat = dsl::mul(dsl::constant(50.0), dsl::sig(dsl::Signal::kMss));
  EXPECT_LT(total_distance(reno, segs, distance::Metric::kDtw),
            total_distance(*flat, segs, distance::Metric::kDtw));
}

// hash_expr collides on sibling-swapped signals (ROADMAP's measured pairs);
// final validation must still score both handlers of such a pair, and only
// merge handlers that are equal trees.
TEST(FinalValidation, HashCollidingHandlersAreBothValidated) {
  auto parsed = [](const char* text) {
    auto r = dsl::parse(text);
    EXPECT_TRUE(r) << text << ": " << r.error;
    return r.expr;
  };
  ScoredHandler worse, better, repeat;
  worse.handler = parsed("(mss + reno-inc) + (cwnd * 0.5)");
  better.handler = parsed("(mss + cwnd) + (reno-inc * 0.5)");
  repeat.handler = parsed("(mss + reno-inc) + (cwnd * 0.5)");
  ASSERT_TRUE(worse.valid() && better.valid() && repeat.valid());
  ASSERT_EQ(dsl::hash_expr(*worse.handler), dsl::hash_expr(*better.handler));
  ASSERT_FALSE(dsl::equal(*worse.handler, *better.handler));

  const std::vector<trace::Segment> validation{make_segment(40), make_segment(30)};
  SynthesisOptions opts;
  const double d_worse = total_distance(*worse.handler, validation, opts.metric, opts.dopts);
  const double d_better = total_distance(*better.handler, validation, opts.metric, opts.dopts);
  ASSERT_LT(d_better, d_worse);

  std::size_t validated = 0;
  const auto winner = validate_candidates({worse, better, repeat}, validation, opts, &validated);
  EXPECT_EQ(validated, 2u);  // the repeat is the same tree as `worse`
  ASSERT_TRUE(winner.valid());
  EXPECT_TRUE(dsl::equal(*winner.handler, *better.handler)) << dsl::to_string(*winner.handler);
  EXPECT_EQ(winner.distance, d_better);
}

TEST(Concretize, NoHolesYieldsOneEmptyAssignment) {
  auto e = dsl::sig(dsl::Signal::kCwnd);
  util::Rng rng(1);
  auto a = enumerate_assignments(*e, {1.0, 2.0}, {}, rng);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0].empty());
}

TEST(Concretize, FullCartesianWhenSmall) {
  auto e = dsl::add(dsl::hole(0), dsl::mul(dsl::hole(1), dsl::sig(dsl::Signal::kMss)));
  util::Rng rng(1);
  ConcretizeOptions opts;
  opts.budget = 100;
  auto a = enumerate_assignments(*e, {1.0, 2.0, 3.0}, opts, rng);
  EXPECT_EQ(a.size(), 9u);
  std::set<std::pair<double, double>> seen;
  for (const auto& v : a) seen.insert({v[0], v[1]});
  EXPECT_EQ(seen.size(), 9u);
}

TEST(Concretize, BudgetCapsWithDistinctSamples) {
  // 3 holes, pool of 10: 1000 combos, budget 50.
  auto e = dsl::add(dsl::hole(0), dsl::mul(dsl::hole(1), dsl::add(dsl::hole(2),
                                                                  dsl::sig(dsl::Signal::kMss))));
  util::Rng rng(1);
  ConcretizeOptions opts;
  opts.budget = 50;
  std::vector<double> pool;
  for (int i = 1; i <= 10; ++i) pool.push_back(i);
  auto a = enumerate_assignments(*e, pool, opts, rng);
  EXPECT_EQ(a.size(), 50u);
  std::set<std::vector<double>> seen(a.begin(), a.end());
  EXPECT_EQ(seen.size(), 50u);  // without replacement
}

TEST(Concretize, CompletionCountIsPoolPowerHoles) {
  auto e = dsl::add(dsl::hole(0), dsl::hole(1));
  EXPECT_DOUBLE_EQ(completion_count(*e, 10), 100.0);
  EXPECT_DOUBLE_EQ(completion_count(*dsl::sig(dsl::Signal::kCwnd), 10), 1.0);
}

TEST(Buckets, FeasibleSubsetsOnly) {
  const auto buckets = make_buckets(dsl::reno_dsl());
  for (const auto& b : buckets) {
    const bool has_cmp = std::any_of(b.ops.begin(), b.ops.end(), [](dsl::Op o) {
      return o == dsl::Op::kLt || o == dsl::Op::kGt || o == dsl::Op::kModEq;
    });
    const bool has_cond =
        std::find(b.ops.begin(), b.ops.end(), dsl::Op::kCond) != b.ops.end();
    EXPECT_EQ(has_cmp, has_cond) << b.label;
  }
}

TEST(Buckets, CountForRenoDsl) {
  // 8 ops: {add,sub,mul,div} free (16 combos) x comparison/cond structure:
  // either no cond & no cmp (1) or cond with any non-empty cmp subset (7)
  // -> 16 * 8 = 128 buckets including the leaf-only bucket.
  EXPECT_EQ(make_buckets(dsl::reno_dsl()).size(), 128u);
}

TEST(Buckets, LabelsAreUniqueAndSorted) {
  const auto buckets = make_buckets(dsl::reno_dsl());
  std::set<std::string> labels;
  for (const auto& b : buckets) labels.insert(b.label);
  EXPECT_EQ(labels.size(), buckets.size());
}

TEST(Buckets, BucketOfMatchesMembership) {
  auto sketch = dsl::add(dsl::sig(dsl::Signal::kCwnd),
                         dsl::mul(dsl::hole(0), dsl::sig(dsl::Signal::kRenoInc)));
  const auto b = bucket_of(*sketch);
  EXPECT_TRUE(same_ops(b.ops, {dsl::Op::kAdd, dsl::Op::kMul}));
  // And that bucket exists in the partition of its DSL.
  bool found = false;
  for (const auto& cand : make_buckets(dsl::reno_dsl())) {
    if (same_ops(cand.ops, b.ops)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Buckets, EmptyBucketIsLeafOnly) {
  const auto b = bucket_of(*dsl::sig(dsl::Signal::kCwnd));
  EXPECT_TRUE(b.ops.empty());
  EXPECT_EQ(b.label, "{}");
}

TEST(Buckets, SameOpsIsOrderInsensitive) {
  EXPECT_TRUE(same_ops({dsl::Op::kMul, dsl::Op::kAdd}, {dsl::Op::kAdd, dsl::Op::kMul}));
  EXPECT_FALSE(same_ops({dsl::Op::kMul}, {dsl::Op::kAdd, dsl::Op::kMul}));
}

}  // namespace
}  // namespace abg::synth
