// §6.1: search-efficiency accounting for Reno, plus the §4.1 search-space
// size claims and the §4.4 bucket-discriminator ablation.
//   * raw sketch-space sizes by depth (the ~2-billion / 10^150 numbers),
//   * the enumeration-pruned space (type/unit/simplifiability filters),
//     counted exactly by the native sketch-space generator,
//   * bucket counts for the operator-subset discriminator vs the
//     signal-subset alternative,
//   * a refinement-loop run with per-iteration handler counts and the
//     fraction of the viable space explored.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"

#include "synth/buckets.hpp"
#include "synth/sketch_space.hpp"

using namespace abg;

int main() {
  setvbuf(stdout, nullptr, _IONBF, 0);
  bench::banner("Section 6.1 — search efficiency (Reno)");

  const auto reno = dsl::reno_dsl();

  auto print_count = [](double n) {
    if (std::isfinite(n)) std::printf("%.3g sketches\n", n);
    else std::printf("> 10^308 sketches (double overflow)\n");
  };
  std::printf("search-space sizes (raw typed trees, Reno-DSL, %zu elements):\n",
              reno.element_count());
  for (int d = 2; d <= 7; ++d) {
    std::printf("  depth %d: ", d);
    print_count(dsl::sketch_space_size(reno, d));
  }
  {
    dsl::Dsl full = dsl::vegas_dsl();
    full.ops.push_back(dsl::Op::kCube);
    full.ops.push_back(dsl::Op::kCbrt);
    std::printf("full Listing-1 DSL at depth 7: ");
    print_count(dsl::sketch_space_size(full, 7));
    std::printf("(paper: ~10^150 — both far beyond the atoms in the universe)\n\n");
  }

  // Bucket-discriminator ablation (§4.4): operator subsets vs signal subsets.
  const auto op_buckets = synth::make_buckets(reno);
  const double signal_buckets = std::pow(2.0, static_cast<double>(reno.signals.size() + 1));
  std::printf("bucket discriminators:\n");
  std::printf("  operator-subset (chosen): %zu feasible buckets\n", op_buckets.size());
  std::printf("  signal-subset (option 3): %.0f buckets (no feasibility pruning applies)\n\n",
              signal_buckets);

  // The viable space at the bench's working bounds, counted by the native
  // generator over the Z3 encoding's trees (synth/sketch_space.hpp). Two
  // counts: distinct canonical sketches (deduped with dsl::equal), and
  // distinct dsl::hash_expr values, which is what a sketch stream emits; the
  // difference is what hash collisions drop. Paper scale is far too large to
  // visit, so there the count stops after a fixed amount of work.
  const int depth = bench::full_scale() ? 4 : 3;
  const int nodes = bench::full_scale() ? 15 : 7;
  synth::EnumeratorOptions eo;
  eo.max_depth = depth;
  eo.max_nodes = nodes;
  eo.max_holes = 3;
  const std::size_t work_cap = bench::full_scale() ? 5'000'000 : SIZE_MAX;
  const auto count_start = std::chrono::steady_clock::now();
  synth::SketchSpace space(reno, eo);
  std::unordered_map<std::size_t, std::vector<dsl::ExprPtr>> by_hash;
  std::size_t viable = 0;
  const bool exact = space.advance(work_cap, [&](const dsl::ExprPtr& s) {
    auto& same = by_hash[dsl::hash_expr(*s)];
    for (const auto& t : same) {
      if (dsl::equal(*t, *s)) return;
    }
    same.push_back(s);
    ++viable;
  });
  const double count_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - count_start).count();
  std::printf("viable space at depth %d (type+unit+non-simplifiable): %zu%s sketches\n", depth,
              viable, exact ? "" : "+ (capped)");
  std::printf("  distinct hashes, as a sketch stream emits them: %zu (%zu lost to hash collisions)\n",
              space.distinct(), viable - space.distinct());
  std::printf("  (raw space at this depth: %.3g; trees the encoding admits: %zu; counted natively "
              "in %.2f s)\n\n",
              dsl::sketch_space_size(reno, depth), space.trees(), count_s);

  // Refinement-loop accounting.
  auto traces = bench::collect("reno", /*seed=*/101);
  auto segs = bench::segments_for(traces);
  auto opts = bench::synth_opts(bench::full_scale() ? 3600.0 : 90.0);
  opts.max_depth = depth;
  opts.max_nodes = nodes;
  auto result = synth::synthesize(reno, segs, opts);

  std::printf("refinement loop: %zu initial buckets, %zu iterations, %.1f s\n",
              result.initial_buckets, result.iterations.size(), result.seconds);
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const auto& it = result.iterations[i];
    std::size_t handlers = 0, retained = 0;
    for (const auto& b : it.buckets) {
      handlers += b.handlers_scored;
      retained += b.retained;
    }
    std::printf("  iter %zu: N=%d, %zu buckets scored, %zu retained, %zu segments, "
                "%zu handlers scored so far, %.1f s\n",
                i + 1, it.n_target, it.buckets.size(), retained, it.segments_used, handlers,
                it.seconds);
  }
  std::printf("total: %zu sketches enumerated, %zu handlers scored\n", result.total_sketches,
              result.total_handlers_scored);
  if (viable > 0) {
    std::printf("fraction of viable sketch space explored: %s%.0f%%  (paper: ~1/3)\n",
                exact ? "" : "at most ",
                100.0 * static_cast<double>(result.total_sketches) /
                    static_cast<double>(viable));
  }
  std::printf("returned: %s  (distance %.3f)\n",
              result.best.valid() ? dsl::to_string(*result.best.handler).c_str() : "<none>",
              result.best.distance);
  return 0;
}
