// ISSUE 7's bit-exactness contract, enforced: the SIMD DTW kernels and the
// batched bytecode replay path must be indistinguishable from the scalar
// reference in every result that feeds selection — not approximately, but
// bit for bit. Every suite here runs in each CI SIMD matrix leg (ABG_SIMD =
// avx2/scalar), so a kernel that diverges on some host breaks the build
// on that host rather than silently reordering search winners.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "cca/signals.hpp"
#include "distance/distance.hpp"
#include "distance/simd.hpp"
#include "dsl/bytecode.hpp"
#include "dsl/eval.hpp"
#include "dsl/expr.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "synth/batch_eval.hpp"
#include "synth/concretize.hpp"
#include "synth/eval_cache.hpp"
#include "synth/refinement.hpp"
#include "synth/replay.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace abg::distance {
namespace {

std::vector<double> random_walk(util::Rng& rng, std::size_t n, double lo = -1.0,
                                double hi = 1.0) {
  std::vector<double> v(n);
  double w = rng.uniform(-10, 10);
  for (auto& x : v) x = (w += rng.uniform(lo, hi));
  return v;
}

std::vector<Simd> available_vector_kernels() {
  std::vector<Simd> out;
  if (simd_available(Simd::kAvx2)) out.push_back(Simd::kAvx2);
  return out;
}

// The central claim: for any input and any cutoff, every kernel returns the
// bitwise-identical exact-or-+inf result. Series lengths straddle the
// cache-block strip height (128) so strip-carry logic, partial strips, and
// single-row strips are all exercised.
TEST(KernelEquivalence, AllKernelsMatchScalarBitwise) {
  const auto kernels = available_vector_kernels();
  if (kernels.empty()) GTEST_SKIP() << "no vector ISA on this host";
  util::Rng rng(29);
  const std::size_t lengths[] = {1, 2, 3, 5, 17, 64, 100, 127, 128, 129, 200, 257, 300};
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = lengths[static_cast<std::size_t>(
        rng.uniform_int(0, std::size(lengths) - 1))];
    const std::size_t m = lengths[static_cast<std::size_t>(
        rng.uniform_int(0, std::size(lengths) - 1))];
    const auto a = random_walk(rng, n);
    const auto b = random_walk(rng, m);
    for (double frac : {0.0, 0.05, 0.1, 0.3}) {
      const double exact = dtw(a, b, frac, kNoAbandon, Simd::kScalar);
      const double cutoffs[] = {kNoAbandon,       exact * 1.1, exact,
                                exact * 0.5,      exact * 0.1, 0.0,
                                std::nextafter(exact, kNoAbandon)};
      for (double cutoff : cutoffs) {
        const double want = dtw(a, b, frac, cutoff, Simd::kScalar);
        for (Simd k : kernels) {
          const double got = dtw(a, b, frac, cutoff, k);
          // Bitwise: either both +inf or the identical double.
          EXPECT_TRUE(got == want || (std::isinf(got) && std::isinf(want)))
              << simd_name(k) << " n=" << n << " m=" << m << " frac=" << frac
              << " cutoff=" << cutoff << " want=" << want << " got=" << got;
        }
      }
    }
  }
}

TEST(KernelEquivalence, CellCountsMatchScalarWhenUnbounded) {
  // With no cutoff the kernels walk exactly the same band, so the
  // distance.dtw_cells accounting must agree — this is what makes the CI
  // cells/evals ratio gate kernel-independent.
  const auto kernels = available_vector_kernels();
  if (kernels.empty()) GTEST_SKIP() << "no vector ISA on this host";
  util::Rng rng(31);
  auto cells_for = [](std::span<const double> a, std::span<const double> b, double frac,
                      Simd k) {
    auto& c = obs::counter("distance.dtw_cells");
    const std::uint64_t before = c.value();
    dtw(a, b, frac, kNoAbandon, k);
    return c.value() - before;
  };
  for (std::size_t n : {3u, 64u, 129u, 250u}) {
    const auto a = random_walk(rng, n);
    const auto b = random_walk(rng, n + 7);
    for (double frac : {0.0, 0.1}) {
      const std::uint64_t want = cells_for(a, b, frac, Simd::kScalar);
      for (Simd k : kernels) {
        EXPECT_EQ(cells_for(a, b, frac, k), want) << simd_name(k) << " n=" << n;
      }
    }
  }
}

TEST(KernelEquivalence, PerKernelCountersAttributeTheDp) {
  // The labeled distance.dtw_evals{kernel=...} series is the counter half of
  // the per-kernel provenance (the journal byte is the other half).
  const std::vector<double> a{0.0, 1.0, 2.0, 3.0}, b{0.0, 1.0, 2.0, 4.0};
  auto& labeled = obs::counter("distance.dtw_evals", {{"kernel", "scalar"}});
  const std::uint64_t before = labeled.value();
  dtw(a, b, 0.0, kNoAbandon, Simd::kScalar);
  EXPECT_EQ(labeled.value(), before + 1);
}

// CI dispatch self-test: each matrix leg sets ABG_SIMD and asserts the
// resolved kernel is the requested one (skip-with-notice when the ISA is
// unavailable on the runner, e.g. avx2 on an older box).
TEST(SimdDispatch, ResolvedKernelMatchesAbgSimdRequest) {
  const char* env = std::getenv("ABG_SIMD");
  if (env == nullptr || *env == '\0') GTEST_SKIP() << "ABG_SIMD not set";
  const auto want = parse_simd(env);
  ASSERT_TRUE(want.has_value()) << "unparseable ABG_SIMD=" << env;
  if (*want == Simd::kAuto) GTEST_SKIP() << "ABG_SIMD=auto pins no kernel";
  if (!simd_available(*want)) {
    GTEST_SKIP() << "requested ISA " << simd_name(*want) << " unavailable on this host";
  }
  EXPECT_EQ(resolve_simd(Simd::kAuto), *want);
}

TEST(SimdDispatch, ExplicitOptionBeatsEnvironment) {
  // An explicit Simd on the call must win over ABG_SIMD: both kernels are
  // pinned whatever the environment says (AVX2 only where the host runs it).
  EXPECT_EQ(resolve_simd(Simd::kScalar), Simd::kScalar);
  EXPECT_EQ(resolve_simd(Simd::kAvx2),
            simd_available(Simd::kAvx2) ? Simd::kAvx2 : Simd::kScalar);
}

TEST(SimdDispatch, ReportMetaNamesTheProcessKernel) {
  // meta.simd_kernel names the process kernel (ABG_SIMD, else the CPU); a
  // one-off explicit tier on a single call must not rewrite it.
  const Simd process = resolve_simd();
  const std::vector<double> a{0.0, 1.0, 2.0}, b{0.0, 1.5, 2.0};
  dtw(a, b, 0.0, kNoAbandon, Simd::kScalar);
  std::string stamped;
  for (const auto& [key, value] : obs::report_meta()) {
    if (key == "simd_kernel") stamped = value;
  }
  EXPECT_EQ(stamped, simd_name(process));
}

TEST(SimdDispatch, AlwaysResolvesToAnAvailableKernel) {
  // Requesting any tier — including one this host lacks — must land on an
  // available kernel: a missing AVX2 falls back to scalar.
  for (Simd req : {Simd::kAuto, Simd::kScalar, Simd::kAvx2}) {
    const Simd got = resolve_simd(req);
    EXPECT_NE(got, Simd::kAuto);
    EXPECT_TRUE(simd_available(got)) << simd_name(req) << " -> " << simd_name(got);
  }
}

TEST(SimdDispatch, KernelNamesRoundTrip) {
  for (Simd s : {Simd::kScalar, Simd::kAvx2, Simd::kAuto}) {
    const auto parsed = parse_simd(simd_name(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parse_simd("sse2").has_value());  // the kernel is deleted
  EXPECT_FALSE(parse_simd("avx512").has_value());
  EXPECT_FALSE(parse_simd("").has_value());
}

}  // namespace
}  // namespace abg::distance

namespace abg::dsl {
namespace {

// Random expression generator mirroring test_expr_property's, plus holes, so
// the bytecode compiler is fuzzed over the same space the enumerator emits.
ExprPtr random_num(util::Rng& rng, int depth, bool holes);

ExprPtr random_bool(util::Rng& rng, int depth, bool holes) {
  const auto a = random_num(rng, depth - 1, holes);
  const auto b = random_num(rng, depth - 1, holes);
  switch (rng.uniform_int(0, 2)) {
    case 0: return lt(a, b);
    case 1: return gt(a, b);
    default: return mod_eq(a, b);
  }
}

ExprPtr random_num(util::Rng& rng, int depth, bool holes) {
  if (depth <= 1 || rng.chance(0.3)) {
    if (holes && rng.chance(0.2)) return hole(static_cast<int>(rng.uniform_int(0, 3)));
    if (rng.chance(0.25)) {
      static const double kConsts[] = {0.0, 1.0, -0.7, 2.5, 8.0, 0.001};
      return constant(kConsts[rng.uniform_int(0, 5)]);
    }
    return sig(static_cast<Signal>(rng.uniform_int(0, kSignalCount - 1)));
  }
  switch (rng.uniform_int(0, 6)) {
    case 0: return add(random_num(rng, depth - 1, holes), random_num(rng, depth - 1, holes));
    case 1: return sub(random_num(rng, depth - 1, holes), random_num(rng, depth - 1, holes));
    case 2: return mul(random_num(rng, depth - 1, holes), random_num(rng, depth - 1, holes));
    case 3: return div(random_num(rng, depth - 1, holes), random_num(rng, depth - 1, holes));
    case 4: return cube(random_num(rng, depth - 1, holes));
    case 5: return cbrt(random_num(rng, depth - 1, holes));
    default:
      return cond(random_bool(rng, depth - 1, holes), random_num(rng, depth - 1, holes),
                  random_num(rng, depth - 1, holes));
  }
}

cca::Signals random_signals(util::Rng& rng) {
  cca::Signals s;
  s.now = rng.uniform(0, 100);
  s.mss = 1448.0;
  s.cwnd = rng.uniform(1448.0, 1448.0 * 500);
  s.acked_bytes = rng.chance(0.2) ? 0.0 : 1448.0 * static_cast<double>(rng.uniform_int(1, 3));
  s.rtt = rng.uniform(0.001, 0.3);
  s.srtt = s.rtt;
  s.min_rtt = s.rtt * rng.uniform(0.3, 1.0);
  s.max_rtt = s.rtt * rng.uniform(1.0, 3.0);
  s.ack_rate = rng.uniform(0.0, 2e6);
  s.rtt_gradient = rng.uniform(-0.5, 0.5);
  s.time_since_loss = rng.uniform(0.0, 30.0);
  s.cwnd_at_loss = rng.uniform(1448.0, 1448.0 * 500);
  return s;
}

// NaN-tolerant bitwise equality: eval is total but not finite (overflow to
// inf, inf - inf), and both paths must produce the same stream of doubles.
::testing::AssertionResult same_double(double got, double want) {
  if (got == want || (std::isnan(got) && std::isnan(want))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "got " << got << " want " << want;
}

TEST(Bytecode, MatchesTreeWalkOnRandomExprs) {
  util::Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    const auto e = random_num(rng, static_cast<int>(rng.uniform_int(1, 6)), /*holes=*/true);
    std::vector<double> vals;
    const int n_vals = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < n_vals; ++i) vals.push_back(rng.uniform(-3.0, 3.0));
    const auto filled = fill_holes(e, vals);
    const Program p = compile(*e);
    for (int s = 0; s < 4; ++s) {
      const auto sigs = random_signals(rng);
      EXPECT_TRUE(same_double(run(p, sigs, vals), eval(*filled, sigs)))
          << "expr: " << to_string(*e) << " trial " << trial;
    }
  }
}

TEST(Bytecode, BatchLanesMatchSingleLaneRuns) {
  util::Rng rng(103);
  for (int trial = 0; trial < 100; ++trial) {
    const auto e = random_num(rng, 5, /*holes=*/true);
    const Program p = compile(*e);
    const std::size_t n_lanes = static_cast<std::size_t>(rng.uniform_int(1, kBatchLanes));
    std::vector<double> lane_cwnd(n_lanes);
    std::vector<double> holes_sm(p.hole_slots * n_lanes);  // slot-major
    std::vector<std::vector<double>> per_lane(n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      lane_cwnd[l] = rng.uniform(0.0, 1448.0 * 300);
      for (std::size_t s = 0; s < p.hole_slots; ++s) {
        const double v = rng.uniform(-2.0, 2.0);
        holes_sm[s * n_lanes + l] = v;
        per_lane[l].push_back(v);
      }
    }
    const auto base = random_signals(rng);
    double out[kBatchLanes];
    run_batch(p, base, lane_cwnd, holes_sm, n_lanes, out);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      cca::Signals sigs = base;
      sigs.cwnd = lane_cwnd[l];
      EXPECT_TRUE(same_double(out[l], run(p, sigs, per_lane[l])))
          << "expr: " << to_string(*e) << " lane " << l;
    }
  }
}

TEST(Bytecode, StaticallyFalseGuardKeepsHoleSlots) {
  // A hole inside a guard that eval_bool rejects statically (a non-boolean
  // condition) is never executed, but it still owns its hole slot — the
  // bindings of the holes that DO execute must not shift.
  const auto e = cond(add(hole(0), hole(1)), hole(2), hole(3));
  const std::vector<double> vals{2.0, 3.0, 4.0, 5.0};
  const Program p = compile(*e);
  EXPECT_EQ(p.hole_slots, 4u);
  const cca::Signals sigs;
  EXPECT_EQ(run(p, sigs, vals), 5.0);  // guard is false -> else branch -> hole 3
  EXPECT_EQ(run(p, sigs, vals), eval(*fill_holes(e, vals), sigs));
}

}  // namespace
}  // namespace abg::dsl

namespace abg::synth {
namespace {

trace::Segment make_segment(util::Rng& rng, std::size_t n) {
  trace::Segment seg;
  seg.cca_name = "fuzz";
  double cwnd = 10 * 1448.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace::AckSample s;
    s.sig = dsl::random_signals(rng);
    s.sig.cwnd = cwnd;
    s.is_dup = rng.chance(0.1);
    cwnd = std::max(1448.0, cwnd + rng.uniform(-1448.0, 2 * 1448.0));
    s.cwnd_after = cwnd;
    seg.samples.push_back(s);
  }
  return seg;
}

TEST(BatchReplay, MatchesScalarReplayBitwise) {
  util::Rng rng(107);
  for (int trial = 0; trial < 40; ++trial) {
    const auto sketch = dsl::random_num(rng, 5, /*holes=*/true);
    const dsl::Program prog = dsl::compile(*sketch);
    const auto seg = make_segment(rng, static_cast<std::size_t>(rng.uniform_int(1, 60)));
    const std::size_t n_lanes = static_cast<std::size_t>(rng.uniform_int(1, dsl::kBatchLanes));
    std::vector<std::vector<double>> assigns(n_lanes);
    for (auto& a : assigns) {
      const int n_vals = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < n_vals; ++i) a.push_back(rng.uniform(-2.0, 2.0));
    }
    std::vector<const std::vector<double>*> lanes;
    for (const auto& a : assigns) lanes.push_back(&a);
    std::vector<std::vector<double>> got;
    replay_batch(prog, lanes, seg, {}, &got);
    ASSERT_EQ(got.size(), n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
      const auto want = replay(*dsl::fill_holes(sketch, assigns[l]), seg);
      ASSERT_EQ(got[l].size(), want.size()) << "lane " << l;
      for (std::size_t i = 0; i < want.size(); ++i) {
        // Bitwise: the synthesized series feeds DTW, whose result feeds
        // selection; any ULP of drift here could reorder winners.
        EXPECT_TRUE(dsl::same_double(got[l][i], want[i]))
            << "lane " << l << " sample " << i << " sketch " << dsl::to_string(*sketch);
      }
    }
  }
}

// The tree-walk oracle for score_sketch: the same enumerate_assignments
// draw, each handler scored by an unbounded total_distance (tree-walk
// replay, no cache, no batching), the first minimum winning ties.
struct Oracle {
  ScoredHandler best;
  std::size_t handlers = 0;
};

Oracle tree_walk_oracle(const dsl::ExprPtr& sketch, const std::vector<trace::Segment>& segments,
                        const std::vector<double>& pool, const SynthesisOptions& opts,
                        std::uint64_t rng_seed) {
  util::Rng rng(rng_seed);
  ConcretizeOptions copts;
  copts.budget = opts.concretize_budget;
  const auto assignments = enumerate_assignments(*sketch, pool, copts, rng);
  Oracle o;
  o.best.sketch = sketch;
  o.handlers = assignments.size();
  for (const auto& assign : assignments) {
    auto handler = dsl::fill_holes(sketch, assign);
    const double d = total_distance(*handler, segments, opts.metric, opts.dopts);
    if (d < o.best.distance) {
      o.best.distance = d;
      o.best.handler = std::move(handler);
    }
  }
  return o;
}

// score_sketch (batched bytecode replay, optional memo cache, optional
// abandon bound) against the oracle: same handler, bit-identical distance,
// same handler count, in every combination. The first sketch has exact ties
// (0.5 * (2 * x) == 2 * (0.5 * x)), so the first-minimum rule is exercised.
TEST(ScoreSketch, MatchesTreeWalkOracle) {
  util::Rng seg_rng(131);
  std::vector<trace::Segment> segments;
  for (int i = 0; i < 3; ++i) segments.push_back(make_segment(seg_rng, 40));
  const std::vector<double> pool{0.25, 0.5, 1.0, 2.0};
  const auto reno_inc = dsl::sig(dsl::Signal::kRenoInc);
  const auto cwnd = dsl::sig(dsl::Signal::kCwnd);
  std::vector<dsl::ExprPtr> sketches{
      dsl::add(cwnd, dsl::mul(dsl::hole(0), dsl::mul(dsl::hole(1), reno_inc))),
      dsl::add(cwnd, dsl::mul(dsl::hole(0), dsl::add(reno_inc, dsl::hole(1)))),
      dsl::sub(dsl::mul(cwnd, dsl::hole(0)), dsl::hole(1)),
  };
  util::Rng sketch_rng(137);
  for (int i = 0; i < 3; ++i) sketches.push_back(dsl::random_num(sketch_rng, 4, /*holes=*/true));

  for (std::size_t si = 0; si < sketches.size(); ++si) {
    const auto& sketch = sketches[si];
    SynthesisOptions opts;
    opts.concretize_budget = 20;
    const std::uint64_t seed = 61 + si;
    const Oracle want = tree_walk_oracle(sketch, segments, pool, opts, seed);
    if (!want.best.valid()) continue;  // every handler non-finite: nothing to pin
    const std::string want_text = dsl::to_string(*want.best.handler);
    for (const bool use_cache : {false, true}) {
      for (const bool abandon : {false, true}) {
        SCOPED_TRACE(dsl::to_string(*sketch) + " cache=" + std::to_string(use_cache) +
                     " abandon=" + std::to_string(abandon));
        opts.early_abandon = abandon;
        EvalCache cache;
        EvalContext ctx;
        if (use_cache) {
          ctx.cache = &cache;
          ctx.fingerprint = 42;
        }
        // A finite bound the winner beats: the winner must stay exact.
        if (abandon) ctx.abandon_above = want.best.distance * 2 + 1;
        // Twice: the second pass answers from the cache when there is one.
        for (int pass = 0; pass < 2; ++pass) {
          util::Rng rng(seed);
          std::size_t scored = 0;
          const auto got = score_sketch(sketch, segments, pool, opts, rng, &scored, &ctx);
          ASSERT_TRUE(got.valid()) << "pass " << pass;
          EXPECT_EQ(dsl::to_string(*got.handler), want_text) << "pass " << pass;
          EXPECT_TRUE(dsl::same_double(got.distance, want.best.distance)) << "pass " << pass;
          EXPECT_EQ(scored, want.handlers) << "pass " << pass;
        }
        if (abandon) {
          // A bound the winner cannot beat: every result is exact or +inf.
          // Evaluated candidates all abandon; only a cache hit can still
          // return its exact distance, which must then be the oracle's.
          EvalContext tight = ctx;
          tight.abandon_above = want.best.distance;
          util::Rng rng(seed);
          const auto capped = score_sketch(sketch, segments, pool, opts, rng, nullptr, &tight);
          if (use_cache && capped.valid()) {
            EXPECT_TRUE(dsl::same_double(capped.distance, want.best.distance));
          } else {
            EXPECT_FALSE(capped.valid());
          }
        }
      }
    }
  }
}

// Kernel invariance at the score_sketch level: under every available DTW
// kernel, score_sketch selects the oracle's winner (computed with the
// scalar kernel) with the bitwise-identical distance.
TEST(BatchSearch, WinnerIdenticalAcrossBatchingAndKernels) {
  util::Rng seg_rng(109);
  std::vector<trace::Segment> segments;
  for (int i = 0; i < 3; ++i) segments.push_back(make_segment(seg_rng, 40));
  const std::vector<double> pool{0.25, 0.5, 1.0, 2.0};
  const auto sketch =
      dsl::add(dsl::sig(dsl::Signal::kCwnd),
               dsl::mul(dsl::hole(0), dsl::add(dsl::sig(dsl::Signal::kRenoInc),
                                               dsl::hole(1))));

  SynthesisOptions scalar_opts;
  scalar_opts.dopts.simd = distance::Simd::kScalar;
  scalar_opts.concretize_budget = 24;
  const Oracle want = tree_walk_oracle(sketch, segments, pool, scalar_opts, 55);
  ASSERT_TRUE(want.best.valid());

  std::vector<distance::Simd> kernels{distance::Simd::kScalar};
  if (distance::simd_available(distance::Simd::kAvx2)) kernels.push_back(distance::Simd::kAvx2);
  for (const auto kernel : kernels) {
    SynthesisOptions opts = scalar_opts;
    opts.dopts.simd = kernel;
    util::Rng rng(55);  // identical sampling per kernel
    std::size_t scored = 0;
    EvalContext ctx;  // no cache, no bound: every distance exact
    const auto best = score_sketch(sketch, segments, pool, opts, rng, &scored, &ctx);
    ASSERT_TRUE(best.valid());
    EXPECT_EQ(dsl::to_string(*best.handler), dsl::to_string(*want.best.handler))
        << distance::simd_name(kernel);
    EXPECT_EQ(best.distance, want.best.distance) << distance::simd_name(kernel);  // bitwise
    EXPECT_EQ(scored, want.handlers) << distance::simd_name(kernel);
  }
}

// Same invariance with the whole fast path on: memo cache plus a finite
// abandon bound. Only results below the bound are part of the contract, so
// pin the winner (which beats the bound) rather than intermediate values.
TEST(BatchSearch, WinnerSurvivesCacheAndAbandonBound) {
  util::Rng seg_rng(113);
  std::vector<trace::Segment> segments;
  for (int i = 0; i < 2; ++i) segments.push_back(make_segment(seg_rng, 30));
  const std::vector<double> pool{0.5, 1.0, 2.0};
  const auto sketch = dsl::add(dsl::sig(dsl::Signal::kCwnd),
                               dsl::mul(dsl::hole(0), dsl::sig(dsl::Signal::kRenoInc)));

  SynthesisOptions opts;
  opts.concretize_budget = 16;
  const Oracle want = tree_walk_oracle(sketch, segments, pool, opts, 77);
  ASSERT_TRUE(want.best.valid());

  util::Rng rng(77);
  EvalCache cache;
  EvalContext ctx;
  ctx.cache = &cache;
  ctx.fingerprint = 42;
  std::size_t scored = 0;
  ScoredHandler best = score_sketch(sketch, segments, pool, opts, rng, &scored, &ctx);
  // Second pass over the same sketch must answer from the cache and keep
  // the same winner (this is how iteration re-scoring consumes it).
  util::Rng rng2(77);
  ScoredHandler again = score_sketch(sketch, segments, pool, opts, rng2, &scored, &ctx);
  EXPECT_EQ(again.distance, best.distance);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(dsl::to_string(*best.handler), dsl::to_string(*want.best.handler));
  EXPECT_EQ(best.distance, want.best.distance);  // bitwise
}

}  // namespace
}  // namespace abg::synth
