// Trace-distance metrics (§4.3). The synthesis loop scores a candidate
// handler by the distance between its replayed CWND series and the observed
// one; Figure 3 compares four metrics' tolerance to constant error and picks
// Dynamic Time Warping. All series here are plain value sequences; callers
// normalize CWND to packets first so magnitudes are comparable with the
// paper's reported distances.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "distance/simd.hpp"

namespace abg::distance {

enum class Metric {
  kDtw,          // alignment-based; tolerant of temporal shift
  kEuclidean,    // L2 over resampled series
  kManhattan,    // L1 over resampled series
  kFrechet,      // discrete Fréchet (worst-case alignment)
  kCorrelation,  // 1 - Pearson correlation (shape-only)
};

const char* metric_name(Metric m);
std::vector<Metric> all_metrics();

struct DistanceOptions {
  // Series longer than this are linearly resampled down before the O(n*m)
  // DP metrics run (fixed work per trace, as §3.2 requires).
  std::size_t max_points = 256;
  // DTW kernel selection (kAuto: ABG_SIMD env, then CPU detection). Purely a
  // speed knob — every kernel is bit-identical (see simd.hpp).
  Simd simd = Simd::kAuto;
};

// Sentinel for "no early-abandon bound": evaluate the metric exactly.
inline constexpr double kNoAbandon = std::numeric_limits<double>::infinity();

// Linear-interpolation resample of `in` to exactly n >= 2 points.
std::vector<double> resample(std::span<const double> in, std::size_t n);

// Dynamic Time Warping distance with per-step cost |a_i - b_j|, over the
// full n x m matrix (no warping-window constraint).
//
// `abandon_above` is a UCR-suite-style early-abandon bound: once it is
// certain the (normalized) distance will be >= abandon_above, the DP stops
// and +inf is returned. Three pruning levels cascade, cheapest first, all
// exact:
//   * an O(1) LB_Kim-style lower bound over the endpoint cells (every
//     warping path must include (0,0) and (n-1,m-1)), checked before any
//     DP row is allocated ("distance.lb_prunes"),
//   * an O(n+m) LB_Keogh envelope bound — each a-row's distance to b's
//     [min, max] range, summed ("distance.lb_keogh_prunes"),
//   * an in-DP check — every cumulative cell value lower-bounds the final
//     path cost, so when the minimum of a finished row already meets the
//     bound, no extension can come back under it ("distance.early_abandons").
// With abandon_above = kNoAbandon the result is bit-identical to the
// unbounded evaluation.
//
// `simd` picks the DP kernel (see simd.hpp); the exact-or-+inf result is
// kernel-independent bit for bit, so callers may treat it as a pure speed
// knob. The resolved kernel is stamped on journal detail events and the
// per-kernel labeled distance.* counters.
double dtw(std::span<const double> a, std::span<const double> b,
           double abandon_above = kNoAbandon, Simd simd = Simd::kAuto);

// Normalized LB_Keogh envelope lower bound on dtw(a, b): for each a-row, the
// distance from a's value to the global [min, max] envelope of b (the full
// matrix lets every row reach every column). Admissible in exact arithmetic
// AND under IEEE-754 rounding (each row term is a single monotone
// subtraction below the row's true step cost, and both sides accumulate in
// the same row order), so
// lb_keogh() <= dtw() holds bitwise — the property the admissibility test
// asserts and the prune cascade relies on.
double lb_keogh(std::span<const double> a, std::span<const double> b);

// L2 distance between series resampled to a common length, normalized by
// sqrt(length) so it is series-length independent.
double euclidean(std::span<const double> a, std::span<const double> b);

// L1 distance, length-normalized.
double manhattan(std::span<const double> a, std::span<const double> b);

// Discrete Fréchet distance.
double frechet(std::span<const double> a, std::span<const double> b);

// 1 - Pearson correlation coefficient, in [0, 2]; constant series are
// maximally distant from non-constant ones.
double correlation_distance(std::span<const double> a, std::span<const double> b);

// Dispatch with resampling applied per `opts`. Empty series yield +inf
// against non-empty ones and 0 against each other.
//
// `abandon_above` threads the early-abandon bound through to DTW (the only
// metric on the synthesis hot path); the other metrics evaluate exactly and
// ignore it. When the bound triggers, +inf is returned — callers that keep a
// running best under strict `<` comparison see identical selections.
double compute(Metric m, std::span<const double> a, std::span<const double> b,
               const DistanceOptions& opts = {}, double abandon_above = kNoAbandon);

}  // namespace abg::distance
