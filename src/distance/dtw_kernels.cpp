// The two interchangeable DTW DP kernels (see dtw_kernel.hpp for the
// bit-exactness argument). The AVX2 wavefront kernel sweeps anti-diagonals
// of the band in cache-blocked row strips: within one strip of kStripRows rows,
// cells on a diagonal depend only on the two previous diagonals, so a whole
// vector of rows is computed per instruction with no intra-diagonal
// dependency. The strip's entry row lives in a carry buffer; its exit row is
// extracted per diagonal and becomes the next strip's carry, and the minimum
// of a completed carry row is a cut every warping path must cross — the
// strip-granular early-abandon check that mirrors the scalar per-row one.
//
// Anti-diagonal indexing cheat sheet (d = i + j, slot r = i - i0):
//   west  (i,   j-1) -> diagonal d-1, slot r
//   north (i-1, j  ) -> diagonal d-1, slot r-1
//   nw    (i-1, j-1) -> diagonal d-2, slot r-1
// b is stored reversed (rb[t] = b[m-1-t]) so the per-diagonal gather of
// b[j-1] over ascending rows is a forward contiguous load: rb[m + i - d].
#include "distance/dtw_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace abg::distance::detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Strip height: three diagonal buffers of ~kStripRows doubles stay resident
// in L1 while a strip runs, whatever the series length.
constexpr std::size_t kStripRows = 128;

}  // namespace

DtwRun dtw_dp_scalar(std::span<const double> a, std::span<const double> b,
                     const BandSpec& band, double raw_cutoff) {
  const std::size_t n = a.size(), m = b.size();
  std::vector<double> prev(m + 1, kInf), cur(m + 1, kInf);
  prev[0] = 0.0;
  DtwRun run;
  for (std::size_t i = 1; i <= n; ++i) {
    std::fill(cur.begin(), cur.end(), kInf);
    const std::size_t j_lo = band.j_lo[i];
    const std::size_t j_hi = band.j_hi[i];
    double row_min = kInf;
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double cost = std::fabs(a[i - 1] - b[j - 1]);
      const double best = std::min({prev[j], cur[j - 1], prev[j - 1]});
      if (best < kInf) cur[j] = cost + best;
      row_min = std::min(row_min, cur[j]);
    }
    if (j_hi >= j_lo) run.cells += j_hi - j_lo + 1;
    // Cumulative cell values only grow down/right (non-negative step costs),
    // so once a whole row meets the cutoff the final cost must too.
    if (std::isfinite(raw_cutoff) && row_min >= raw_cutoff) {
      run.abandoned = true;
      run.abandon_bound = row_min;
      run.raw = kInf;
      return run;
    }
    std::swap(prev, cur);
  }
  run.raw = prev[m];
  return run;
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) DtwRun dtw_dp_avx2(std::span<const double> a,
                                                   std::span<const double> b,
                                                   const BandSpec& band, double raw_cutoff) {
  constexpr std::size_t W = 4;  // doubles per YMM
  const std::size_t n = a.size(), m = b.size();
  DtwRun run;

  // Padded copies: W doubles of slack each side keep the final, partially
  // masked vector load of every diagonal in-bounds.
  std::vector<double> pa(n + 2 * W, 0.0), rb(m + 2 * W, 0.0);
  std::copy(a.begin(), a.end(), pa.begin() + W);
  for (std::size_t j = 0; j < m; ++j) rb[W + j] = b[m - 1 - j];
  const double* pa_base = pa.data() + W;
  const double* rb_base = rb.data() + W;

  // carry = D[i0][0..m]; row 0 of the matrix to start.
  std::vector<double> carry(m + 1, kInf), next_carry(m + 1, kInf);
  carry[0] = 0.0;

  // Three rotating diagonal buffers over strip rows, slot r = i - i0; slot 0
  // is the carry row's cell on that diagonal, refreshed scalar per diagonal.
  const std::size_t stride = kStripRows + W + 2;
  std::vector<double> bufs(3 * stride, kInf);

  const __m256d vinf = _mm256_set1_pd(kInf);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d lane_step = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);

  for (std::size_t i0 = 0; i0 < n; i0 += kStripRows) {
    const std::size_t i1 = std::min(n, i0 + kStripRows);
    std::fill(bufs.begin(), bufs.end(), kInf);
    std::fill(next_carry.begin(), next_carry.end(), kInf);
    double* prev2 = bufs.data();
    double* prev = bufs.data() + stride;
    double* cur = bufs.data() + 2 * stride;

    const std::size_t dmin = (i0 + 1) + band.j_lo[i0 + 1];
    const std::size_t dmax = i1 + band.j_hi[i1];
    std::size_t lo_row = i0 + 1;  // min row with i + j_hi[i] >= d
    std::size_t hi_row = i0;      // max row with i + j_lo[i] <= d

    for (std::size_t d = dmin; d <= dmax; ++d) {
      double* t = prev2;
      prev2 = prev;
      prev = cur;
      cur = t;
      prev[0] = (d - 1 - i0 <= m) ? carry[d - 1 - i0] : kInf;
      prev2[0] = (d - 2 - i0 <= m) ? carry[d - 2 - i0] : kInf;

      // Both band edges are non-decreasing in the row index, so each
      // cursor advances monotonically (by at most one row per diagonal).
      while (hi_row < i1 && (hi_row + 1) + band.j_lo[hi_row + 1] <= d) ++hi_row;
      while (lo_row < i1 && lo_row + band.j_hi[lo_row] < d) ++lo_row;
      if (lo_row > hi_row || hi_row == i0 || lo_row + band.j_hi[lo_row] < d) {
        // Disconnected band: no cell of this strip sits on this diagonal.
        // Clear the whole buffer so no stale slot leaks downstream.
        std::fill(cur, cur + stride, kInf);
        continue;
      }

      const __m256d vhi = _mm256_set1_pd(static_cast<double>(hi_row));
      for (std::size_t i = lo_row; i <= hi_row; i += W) {
        const std::size_t r = i - i0;
        const __m256d va = _mm256_loadu_pd(pa_base + (i - 1));
        const __m256d vb = _mm256_loadu_pd(rb_base + (m + i - d));
        const __m256d cost = _mm256_andnot_pd(sign, _mm256_sub_pd(va, vb));
        const __m256d west = _mm256_loadu_pd(prev + r);
        const __m256d north = _mm256_loadu_pd(prev + r - 1);
        const __m256d nw = _mm256_loadu_pd(prev2 + r - 1);
        const __m256d best = _mm256_min_pd(_mm256_min_pd(west, north), nw);
        __m256d val = _mm256_add_pd(cost, best);
        const __m256d lane_i =
            _mm256_add_pd(_mm256_set1_pd(static_cast<double>(i)), lane_step);
        const __m256d valid = _mm256_cmp_pd(lane_i, vhi, _CMP_LE_OQ);
        val = _mm256_blendv_pd(vinf, val, valid);
        _mm256_storeu_pd(cur + r, val);
      }
      // Fringe slots the next diagonal may read but this one's vector loop
      // did not write (the ranges move by at most one row per diagonal).
      cur[lo_row - i0 - 1] = kInf;
      cur[hi_row - i0 + 1] = kInf;
      if (hi_row == i1) next_carry[d - i1] = cur[i1 - i0];
    }

    for (std::size_t i = i0 + 1; i <= i1; ++i) {
      if (band.j_hi[i] >= band.j_lo[i]) run.cells += band.j_hi[i] - band.j_lo[i] + 1;
    }
    // A completed carry row is a cut every warping path crosses: its minimum
    // meeting the cutoff proves the final cost does too (see dtw_kernel.hpp).
    if (std::isfinite(raw_cutoff)) {
      double strip_min = kInf;
      for (std::size_t j = 0; j <= m; ++j) strip_min = std::min(strip_min, next_carry[j]);
      if (strip_min >= raw_cutoff) {
        run.abandoned = true;
        run.abandon_bound = strip_min;
        run.raw = kInf;
        return run;
      }
    }
    carry.swap(next_carry);
  }
  run.raw = carry[m];
  return run;
}

#else  // !__x86_64__

DtwRun dtw_dp_avx2(std::span<const double> a, std::span<const double> b,
                   const BandSpec& band, double raw_cutoff) {
  return dtw_dp_scalar(a, b, band, raw_cutoff);
}

#endif

}  // namespace abg::distance::detail
