#include "distance/distance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "distance/dtw_kernel.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"

namespace abg::distance {

namespace {

// One shared handle per DTW counter (previously three function-local-static
// registrations scattered over the prune branches), all under the distance.*
// namespace the cells/evals series already use.
struct DtwCounters {
  obs::Counter& evals;
  obs::Counter& cells;
  obs::Counter& lb_prunes;
  obs::Counter& lb_keogh_prunes;
  obs::Counter& early_abandons;
};

DtwCounters& dtw_counters() {
  static DtwCounters* c = [] {
    obs::describe("distance.dtw_evals", "DTW evaluations started (prunes included)");
    obs::describe("distance.dtw_cells", "DTW DP cells visited (rows completed x columns)");
    obs::describe("distance.lb_prunes", "DTW evals pruned by the LB_Kim endpoint bound");
    obs::describe("distance.lb_keogh_prunes", "DTW evals pruned by the LB_Keogh envelope bound");
    obs::describe("distance.early_abandons", "DTW evals abandoned before the DP completed");
    return new DtwCounters{
        obs::counter("distance.dtw_evals"), obs::counter("distance.dtw_cells"),
        obs::counter("distance.lb_prunes"), obs::counter("distance.lb_keogh_prunes"),
        obs::counter("distance.early_abandons")};
  }();
  return *c;
}

// Per-kernel labeled provenance: which kernel did the DP work. Keyed by the
// resolved Simd value (never kAuto).
struct KernelCounters {
  obs::Counter& evals;
  obs::Counter& cells;
};

KernelCounters& kernel_counters(Simd k) {
  static KernelCounters scalar{obs::counter("distance.dtw_evals", {{"kernel", "scalar"}}),
                               obs::counter("distance.dtw_cells", {{"kernel", "scalar"}})};
  static KernelCounters avx2{obs::counter("distance.dtw_evals", {{"kernel", "avx2"}}),
                             obs::counter("distance.dtw_cells", {{"kernel", "avx2"}})};
  return k == Simd::kAvx2 ? avx2 : scalar;
}

// Raw-units LB_Keogh over b's global envelope: every warping path visits
// each row i at some column, paying at least a_i's distance to [min b, max b].
// The partial sum is already a lower bound, so the scan exits as soon as it
// meets the cutoff.
double lb_keogh_raw(std::span<const double> a, std::span<const double> b, double raw_cutoff) {
  const auto [lo_it, hi_it] = std::minmax_element(b.begin(), b.end());
  const double lower = *lo_it, upper = *hi_it;
  double lb = 0.0;
  for (const double v : a) {
    if (v > upper) {
      lb += v - upper;
    } else if (v < lower) {
      lb += lower - v;
    }
    if (lb >= raw_cutoff) return lb;
  }
  return lb;
}

}  // namespace

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kDtw: return "dtw";
    case Metric::kEuclidean: return "euclidean";
    case Metric::kManhattan: return "manhattan";
    case Metric::kFrechet: return "frechet";
    case Metric::kCorrelation: return "correlation";
  }
  return "?";
}

std::vector<Metric> all_metrics() {
  return {Metric::kDtw, Metric::kEuclidean, Metric::kManhattan, Metric::kFrechet,
          Metric::kCorrelation};
}

std::vector<double> resample(std::span<const double> in, std::size_t n) {
  std::vector<double> out(n);
  if (in.empty()) return out;
  if (in.size() == 1) {
    std::fill(out.begin(), out.end(), in[0]);
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double pos = static_cast<double>(i) * static_cast<double>(in.size() - 1) /
                       static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, in.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = in[lo] * (1.0 - frac) + in[hi] * frac;
  }
  return out;
}

double dtw(std::span<const double> a, std::span<const double> b, double abandon_above,
           Simd simd) {
  const std::size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) return n == m ? 0.0 : std::numeric_limits<double>::infinity();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  DtwCounters& c = dtw_counters();
  const Simd kern = resolve_simd(simd);
  const auto kern_byte = static_cast<std::uint8_t>(kern);
  // Raw-to-normalized scale for this pair (the return value and every bound
  // are in d / (n+m) * 2 units).
  const double norm = 2.0 / static_cast<double>(n + m);
  // The bound arrives in normalized units; the DP works in raw path-cost
  // units, so compare against the denormalized cutoff.
  const double raw_cutoff = abandon_above / norm;
  // Every pre-DP prune counts as a started eval that was abandoned, under
  // its own stage counter, and journals the bound that fired (normalized).
  auto prune = [&](obs::Counter& stage, obs::JournalKind kind, double bound) {
    c.evals.add();
    stage.add();
    c.early_abandons.add();
    if (obs::journal_enabled()) obs::journal_record_distance(kind, bound, 0, kern_byte);
    return kInf;
  };
  // Nothing can beat a non-positive bound: costs are non-negative.
  if (raw_cutoff <= 0.0) return prune(c.lb_prunes, obs::JournalKind::kLbPrune, abandon_above);
  if (std::isfinite(raw_cutoff)) {
    // LB_Kim-style endpoint bound: every warping path includes both corner
    // cells (they coincide when n == m == 1).
    const double kim = std::fabs(a[0] - b[0]) +
                       (n + m > 2 ? std::fabs(a[n - 1] - b[m - 1]) : 0.0);
    if (kim >= raw_cutoff) return prune(c.lb_prunes, obs::JournalKind::kLbPrune, kim * norm);
    // LB_Keogh envelope cascade: O(n+m), runs only when LB_Kim let the pair
    // through and a finite bound exists to beat.
    const double keogh = lb_keogh_raw(a, b, raw_cutoff);
    if (keogh >= raw_cutoff) {
      return prune(c.lb_keogh_prunes, obs::JournalKind::kLbKeoghPrune, keogh * norm);
    }
  }
  const detail::DtwRun run = kern == Simd::kAvx2 ? detail::dtw_dp_avx2(a, b, raw_cutoff)
                                                 : detail::dtw_dp_scalar(a, b, raw_cutoff);
  // One relaxed add per eval, not per cell: counting stays off the DP loop.
  c.evals.add();
  c.cells.add(run.cells);
  KernelCounters& kc = kernel_counters(kern);
  kc.evals.add();
  kc.cells.add(run.cells);
  if (run.abandoned) {
    c.early_abandons.add();
    if (obs::journal_enabled()) {
      obs::journal_record_distance(obs::JournalKind::kRowAbandon, run.abandon_bound * norm,
                                   run.cells, kern_byte);
    }
    return kInf;
  }
  // Normalize by path length scale so distances are comparable across
  // segment sizes.
  const double d = run.raw;
  const double nd = std::isfinite(d) ? d * norm : kInf;
  if (obs::journal_enabled()) {
    obs::journal_record_distance(obs::JournalKind::kDtwEval, nd, run.cells, kern_byte);
  }
  return nd;
}

double lb_keogh(std::span<const double> a, std::span<const double> b) {
  const std::size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) return 0.0;
  const double norm = 2.0 / static_cast<double>(n + m);
  return lb_keogh_raw(a, b, std::numeric_limits<double>::infinity()) * norm;
}

namespace {

// Resample both series to the shorter of (max(len_a, len_b), cap).
std::pair<std::vector<double>, std::vector<double>> common_grid(std::span<const double> a,
                                                                std::span<const double> b) {
  const std::size_t n = std::max<std::size_t>(2, std::max(a.size(), b.size()));
  return {resample(a, n), resample(b, n)};
}

}  // namespace

double euclidean(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) {
    return a.size() == b.size() ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const auto [ra, rb] = common_grid(a, b);
  double sum = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    const double d = ra[i] - rb[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(ra.size()));
}

double manhattan(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) {
    return a.size() == b.size() ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const auto [ra, rb] = common_grid(a, b);
  double sum = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) sum += std::fabs(ra[i] - rb[i]);
  return sum / static_cast<double>(ra.size());
}

double frechet(std::span<const double> a, std::span<const double> b) {
  const std::size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) return n == m ? 0.0 : std::numeric_limits<double>::infinity();
  // DP over the coupling: ca(i,j) = max(|a_i-b_j|, min(ca(i-1,j), ca(i,j-1),
  // ca(i-1,j-1))). Rolling rows.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> prev(m, kInf), cur(m, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double cost = std::fabs(a[i] - b[j]);
      double reach;
      if (i == 0 && j == 0) reach = cost;
      else if (i == 0) reach = std::max(cur[j - 1], cost);
      else if (j == 0) reach = std::max(prev[j], cost);
      else reach = std::max(std::min({prev[j], cur[j - 1], prev[j - 1]}), cost);
      cur[j] = reach;
    }
    std::swap(prev, cur);
  }
  return prev[m - 1];
}

double correlation_distance(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) {
    return a.size() == b.size() ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const auto [ra, rb] = common_grid(a, b);
  const auto n = static_cast<double>(ra.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ma += ra[i];
    mb += rb[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  if (va <= 0.0 && vb <= 0.0) return 0.0;  // both constant: identical shape
  if (va <= 0.0 || vb <= 0.0) return 2.0;  // one constant: maximally distant
  return 1.0 - cov / std::sqrt(va * vb);
}

double compute(Metric m, std::span<const double> a, std::span<const double> b,
               const DistanceOptions& opts, double abandon_above) {
  static auto& c_evals = obs::counter("distance.evals");
  c_evals.add();
  std::vector<double> sa, sb;
  std::span<const double> ua = a, ub = b;
  if (a.size() > opts.max_points) {
    sa = resample(a, opts.max_points);
    ua = sa;
  }
  if (b.size() > opts.max_points) {
    sb = resample(b, opts.max_points);
    ub = sb;
  }
  switch (m) {
    case Metric::kDtw: return dtw(ua, ub, abandon_above, opts.simd);
    case Metric::kEuclidean: return euclidean(ua, ub);
    case Metric::kManhattan: return manhattan(ua, ub);
    case Metric::kFrechet: return frechet(ua, ub);
    case Metric::kCorrelation: return correlation_distance(ua, ub);
  }
  return 0.0;
}

}  // namespace abg::distance
