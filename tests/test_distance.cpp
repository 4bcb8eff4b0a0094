#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "distance/distance.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace abg::distance {
namespace {

std::vector<double> ramp(std::size_t n, double slope = 1.0, double offset = 0.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = offset + slope * static_cast<double>(i);
  return v;
}

std::vector<double> sine(std::size_t n, double period, double phase = 0.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2 * M_PI * (static_cast<double>(i) / period) + phase);
  }
  return v;
}

TEST(Resample, PreservesEndpoints) {
  auto r = resample(ramp(100), 10);
  ASSERT_EQ(r.size(), 10u);
  EXPECT_DOUBLE_EQ(r.front(), 0.0);
  EXPECT_DOUBLE_EQ(r.back(), 99.0);
}

TEST(Resample, UpsamplesByInterpolation) {
  std::vector<double> v{0.0, 10.0};
  auto r = resample(v, 11);
  EXPECT_NEAR(r[5], 5.0, 1e-9);
}

TEST(Resample, HandlesSingletonAndEmpty) {
  std::vector<double> one{7.0};
  auto r = resample(one, 5);
  for (double x : r) EXPECT_DOUBLE_EQ(x, 7.0);
  EXPECT_EQ(resample({}, 4).size(), 4u);
}

// Identity / symmetry / non-negativity for every metric.
class MetricProperties : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricProperties, IdenticalSeriesHaveZeroDistance) {
  auto a = sine(200, 40);
  EXPECT_NEAR(compute(GetParam(), a, a), 0.0, 1e-9);
}

TEST_P(MetricProperties, IsSymmetric) {
  auto a = sine(150, 30);
  auto b = ramp(170, 0.1);
  EXPECT_NEAR(compute(GetParam(), a, b), compute(GetParam(), b, a), 1e-9);
}

TEST_P(MetricProperties, IsNonNegative) {
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a(50), b(60);
    for (auto& x : a) x = rng.uniform(0, 100);
    for (auto& x : b) x = rng.uniform(0, 100);
    EXPECT_GE(compute(GetParam(), a, b), 0.0);
  }
}

TEST_P(MetricProperties, EmptyVsEmptyIsZero) {
  EXPECT_DOUBLE_EQ(compute(GetParam(), {}, {}), 0.0);
}

TEST_P(MetricProperties, EmptyVsNonEmptyIsInfinite) {
  auto a = ramp(10);
  EXPECT_TRUE(std::isinf(compute(GetParam(), a, {})));
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricProperties, ::testing::ValuesIn(all_metrics()),
                         [](const auto& info) { return metric_name(info.param); });

TEST(Dtw, ToleratesTemporalShiftBetterThanEuclidean) {
  // Same sawtooth, quarter-period phase shift: DTW realigns, Euclidean
  // cannot (the basis of Figure 3's metric choice).
  auto a = sine(400, 80);
  auto b = sine(400, 80, M_PI / 2);
  const double d_dtw = dtw(a, b);
  const double d_euc = euclidean(a, b);
  EXPECT_LT(d_dtw, 0.3 * d_euc);
}

TEST(Dtw, DetectsAmplitudeDifference) {
  auto a = sine(200, 50);
  auto b = a;
  for (auto& x : b) x *= 3.0;
  EXPECT_GT(dtw(a, b), 0.5);
}

TEST(Dtw, HandlesDifferentLengths) {
  auto a = ramp(100);
  auto b = resample(a, 63);
  EXPECT_LT(dtw(a, b), 1.0);
}

TEST(Euclidean, MeasuresVerticalOffset) {
  auto a = ramp(100, 1.0, 0.0);
  auto b = ramp(100, 1.0, 5.0);
  EXPECT_NEAR(euclidean(a, b), 5.0, 1e-9);
}

TEST(Manhattan, MeasuresMeanAbsoluteOffset) {
  auto a = ramp(100, 1.0, 0.0);
  auto b = ramp(100, 1.0, 3.0);
  EXPECT_NEAR(manhattan(a, b), 3.0, 1e-9);
}

TEST(Frechet, IsMaxDeviationForAlignedSeries) {
  auto a = ramp(50);
  auto b = ramp(50, 1.0, 2.0);
  EXPECT_NEAR(frechet(a, b), 2.0, 1e-9);
}

TEST(Correlation, ShapeOnlyIgnoresScale) {
  auto a = sine(100, 25);
  auto b = a;
  for (auto& x : b) x = 10 * x + 100;
  EXPECT_NEAR(correlation_distance(a, b), 0.0, 1e-9);
}

TEST(Correlation, AntiCorrelatedIsMaximal) {
  auto a = sine(100, 25);
  auto b = a;
  for (auto& x : b) x = -x;
  EXPECT_NEAR(correlation_distance(a, b), 2.0, 1e-9);
}

TEST(Correlation, ConstantVsVaryingIsMaximal) {
  std::vector<double> flat(50, 5.0);
  EXPECT_DOUBLE_EQ(correlation_distance(flat, sine(50, 10)), 2.0);
  EXPECT_DOUBLE_EQ(correlation_distance(flat, flat), 0.0);
}

TEST(Compute, ResamplesLongSeries) {
  DistanceOptions opts;
  opts.max_points = 64;
  auto a = sine(5000, 100);
  auto b = sine(5000, 100, 0.05);
  const double d = compute(Metric::kDtw, a, b, opts);
  EXPECT_TRUE(std::isfinite(d));
}

TEST(Compute, MetricNamesAreStable) {
  EXPECT_STREQ(metric_name(Metric::kDtw), "dtw");
  EXPECT_STREQ(metric_name(Metric::kEuclidean), "euclidean");
  EXPECT_EQ(all_metrics().size(), 5u);
}

TEST(DtwAbandon, UnboundedMatchesDefault) {
  auto a = sine(300, 60);
  auto b = sine(300, 60, 0.4);
  EXPECT_DOUBLE_EQ(dtw(a, b), dtw(a, b, kNoAbandon));
}

TEST(DtwAbandon, BoundAboveTrueDistanceIsExact) {
  // A bound the true distance never reaches must not perturb the value —
  // the row-abandon check is a lower bound, never an approximation.
  auto a = sine(300, 60);
  auto b = sine(300, 60, 0.4);
  const double exact = dtw(a, b);
  EXPECT_DOUBLE_EQ(dtw(a, b, exact * 1.0000001), exact);
  EXPECT_DOUBLE_EQ(dtw(a, b, exact + 1.0), exact);
}

TEST(DtwAbandon, NeverReturnsAWrongFiniteValue) {
  // The contract: the result is the exact distance or +inf, nothing in
  // between — a bounded run can refuse to finish, but cannot lie.
  auto a = sine(300, 60);
  auto b = sine(300, 60, 0.4);
  const double exact = dtw(a, b);
  ASSERT_GT(exact, 0.0);
  for (double frac : {0.25, 0.5, 0.9, 1.0, 1.1}) {
    const double d = dtw(a, b, exact * frac);
    EXPECT_TRUE(std::isinf(d) || d == exact) << "frac=" << frac << " d=" << d;
    if (std::isinf(d)) {
      EXPECT_LE(exact * frac, exact + 1e-12);  // only losers abandon
    }
  }
  EXPECT_TRUE(std::isinf(dtw(a, b, 0.0)));  // non-positive bound: instant prune
}

TEST(DtwAbandon, RowMinimumAbandonsHopelessPair) {
  // Constant vertical gap of ~100: every DP row adds >= ~98 of path cost, so
  // a cutoff of 1.0 must trigger the per-row abandon within a few rows (the
  // endpoint LB is below the raw cutoff here, so the row check is what runs).
  auto a = sine(300, 60);
  auto b = a;
  for (auto& x : b) x += 100.0;
  EXPECT_TRUE(std::isinf(dtw(a, b, 1.0)));
  const double exact = dtw(a, b);
  EXPECT_DOUBLE_EQ(dtw(a, b, exact * 1.01), exact);
}

TEST(DtwAbandon, EndpointLowerBoundPrunesWithoutDp) {
  // Endpoint gap of 100 on 2+2 points: normalized lower bound is
  // 2*(|a0-b0|+|a1-b1|)/4 = 50; any cutoff below that prunes pre-DP.
  std::vector<double> a{0.0, 0.0}, b{100.0, 100.0};
  const double exact = dtw(a, b);
  EXPECT_TRUE(std::isinf(dtw(a, b, 10.0)));
  EXPECT_DOUBLE_EQ(dtw(a, b, exact + 1.0), exact);
}

TEST(DtwAbandon, SelectionUnderBoundMatchesExactSelection) {
  // Running-best loop, the synthesis usage pattern: threading the current
  // best as the bound must select the same winner with the same distance.
  auto ref = sine(256, 64);
  std::vector<std::vector<double>> candidates;
  for (int i = 0; i < 12; ++i) {
    candidates.push_back(sine(256, 64, 0.05 * static_cast<double>(12 - i)));
  }
  double best_exact = std::numeric_limits<double>::infinity();
  std::size_t best_exact_i = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double d = dtw(ref, candidates[i]);
    if (d < best_exact) {
      best_exact = d;
      best_exact_i = i;
    }
  }
  double best_fast = std::numeric_limits<double>::infinity();
  std::size_t best_fast_i = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double d = dtw(ref, candidates[i], best_fast);
    if (d < best_fast) {
      best_fast = d;
      best_fast_i = i;
    }
  }
  EXPECT_EQ(best_fast_i, best_exact_i);
  EXPECT_DOUBLE_EQ(best_fast, best_exact);
}

TEST(ComputeAbandon, ThreadsBoundThroughToDtw) {
  auto a = sine(300, 60);
  auto b = sine(300, 60, 0.4);
  DistanceOptions opts;
  const double exact = compute(Metric::kDtw, a, b, opts);
  EXPECT_DOUBLE_EQ(compute(Metric::kDtw, a, b, opts, exact + 1.0), exact);
  EXPECT_TRUE(std::isinf(compute(Metric::kDtw, a, b, opts, exact * 0.5)));
  // Non-DTW metrics evaluate exactly regardless of the bound.
  const double euc = compute(Metric::kEuclidean, a, b, opts);
  EXPECT_DOUBLE_EQ(compute(Metric::kEuclidean, a, b, opts, euc * 0.01), euc);
}

TEST(LbKeogh, IsAdmissibleOnRandomSeries) {
  // The envelope bound must never exceed the true DTW distance — not just in
  // exact arithmetic but bitwise under IEEE-754 rounding (each row term is a
  // monotone subtraction below the row's true step cost, and both sides
  // accumulate row by row), because the prune cascade compares the two
  // directly. A violation here would make the cascade prune a winner.
  util::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 120));
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 120));
    std::vector<double> a(n), b(m);
    double wa = rng.uniform(-10, 10), wb = rng.uniform(-10, 10);
    for (auto& x : a) x = (wa += rng.uniform(-1, 1));
    for (auto& x : b) x = (wb += rng.uniform(-1, 1));
    const double lb = lb_keogh(a, b);
    const double d = dtw(a, b);
    EXPECT_LE(lb, d) << "n=" << n << " m=" << m;
  }
}

TEST(LbKeogh, MatchesGlobalEnvelopeReference) {
  // The bound is each a-value's distance to [min b, max b], summed in row
  // order and normalized by 2 / (n + m): bitwise, against a plain loop.
  util::Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 120));
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 120));
    std::vector<double> a(n), b(m);
    double wa = rng.uniform(-10, 10), wb = rng.uniform(-10, 10);
    for (auto& x : a) x = (wa += rng.uniform(-1, 1));
    for (auto& x : b) x = (wb += rng.uniform(-1, 1));
    double lower = b[0], upper = b[0];
    for (double v : b) {
      lower = std::min(lower, v);
      upper = std::max(upper, v);
    }
    double raw = 0.0;
    for (double v : a) {
      if (v > upper) raw += v - upper;
      if (v < lower) raw += lower - v;
    }
    const double want = raw * (2.0 / static_cast<double>(n + m));
    EXPECT_EQ(lb_keogh(a, b), want) << "n=" << n << " m=" << m;
  }
}

TEST(LbKeogh, TightOnSeparatedConstantSeries) {
  // A constant vertical gap has every in-band step cost exactly the gap, so
  // the envelope bound equals the true distance: admissible AND attained.
  const std::vector<double> a(40, 0.0), b(40, 5.0);
  EXPECT_DOUBLE_EQ(lb_keogh(a, b), dtw(a, b));
}

TEST(LbKeogh, CascadePrunesHopelessPairBeforeTheDp) {
  // A pair LB_Kim lets through (equal endpoints) but whose interior lies far
  // above b's whole range: the envelope cascade must prune it without
  // running the DP, counted under its own stage counter and not as cells.
  std::vector<double> a(100, 0.0), b(100, 0.0);
  for (std::size_t i = 1; i + 1 < a.size(); ++i) a[i] = 50.0;
  const double lb = lb_keogh(a, b);
  ASSERT_GT(lb, 1.0);
  const std::uint64_t before = obs::counter("distance.lb_keogh_prunes").value();
  const std::uint64_t cells = obs::counter("distance.dtw_cells").value();
  EXPECT_TRUE(std::isinf(dtw(a, b, 1.0)));
  EXPECT_EQ(obs::counter("distance.lb_keogh_prunes").value(), before + 1);
  EXPECT_EQ(obs::counter("distance.dtw_cells").value(), cells);
}

}  // namespace
}  // namespace abg::distance
