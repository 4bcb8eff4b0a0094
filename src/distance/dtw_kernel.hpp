// Internal interface between dtw() and its interchangeable DP kernels.
// Each kernel runs the same banded dynamic program in RAW path-cost units
// (the wrapper owns normalization, lower-bound cascades, counters, and
// journal emission) and must be bit-identical to dtw_dp_scalar: the per-cell
// recurrence is |a_i - b_j| + min(west, north, northwest) — an fabs, a
// 3-way min, and one add, all order-independent IEEE-754 operations — so a
// vectorized evaluation order cannot change a single bit of any cell.
//
// Early abandon differs only in granularity, never in outcome: row minima of
// the DP are non-decreasing (every cell adds a non-negative cost to a value
// from the row above or its own row), so "some row minimum >= cutoff" is
// equivalent to "the final row minimum >= cutoff". The scalar kernel checks
// every row, the wavefront kernel checks each strip's carry row; both return
// +inf on exactly the same inputs.
#pragma once

#include <cstdint>
#include <span>

namespace abg::distance::detail {

// One banded DTW dynamic program, raw (unnormalized) units.
struct DtwRun {
  double raw = 0.0;            // D[n][m]; +inf when unreachable
  double abandon_bound = 0.0;  // the row/strip minimum that met the cutoff
  std::uint64_t cells = 0;     // band cells charged (completed rows/strips)
  bool abandoned = false;      // cutoff fired; raw is +inf
};

// Band columns per row, 1-based (index 0 unused), as dtw() computes them:
// j_lo[i] = max(1, center - band), j_hi[i] = min(m, center + band) with
// center = floor(i * m / n). Both are non-decreasing in i — the wavefront
// kernel relies on that to track each diagonal's valid row range with two
// monotone cursors.
struct BandSpec {
  std::span<const std::size_t> j_lo;
  std::span<const std::size_t> j_hi;
};

DtwRun dtw_dp_scalar(std::span<const double> a, std::span<const double> b,
                     const BandSpec& band, double raw_cutoff);
// x86-64 wavefront kernel; on other targets it forwards to the scalar DP
// (resolve_simd never selects it there, but the symbol stays linkable).
DtwRun dtw_dp_avx2(std::span<const double> a, std::span<const double> b,
                   const BandSpec& band, double raw_cutoff);

}  // namespace abg::distance::detail
