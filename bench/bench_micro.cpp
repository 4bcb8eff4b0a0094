// Micro-benchmarks (google-benchmark) for the pipeline's hot paths: distance
// kernels, handler evaluation/replay, sketch enumeration, and the simulator.
// These quantify the §4.3 trade-off (DTW vs Euclidean runtime) and the §4.4
// claim that small per-bucket solver queries enumerate faster than one big
// whole-space query.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "distance/distance.hpp"
#include "dsl/bytecode.hpp"
#include "dsl/eval.hpp"
#include "dsl/known_handlers.hpp"
#include "dsl/simplify.hpp"
#include "dsl/units.hpp"
#include "net/simulator.hpp"
#include "obs/report.hpp"
#include "synth/batch_eval.hpp"
#include "synth/enumerator.hpp"
#include "synth/eval_cache.hpp"
#include "synth/replay.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace abg;

std::vector<double> noisy_saw(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(i % 200) + rng.uniform(-3, 3);
  }
  return v;
}

void BM_Dtw(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = noisy_saw(n, 1), b = noisy_saw(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::dtw(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dtw)->Range(64, 1024)->Complexity(benchmark::oNSquared);

// The same DP with the kernel pinned per arg (0=scalar, 2=avx2), so the
// scalar-vs-SIMD speedup table falls straight out of one bench run.
// A kernel the host cannot execute is skipped, not silently downgraded.
void BM_DtwKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto simd = static_cast<distance::Simd>(state.range(1));
  if (!distance::simd_available(simd)) {
    state.SkipWithError("kernel not available on this host");
    return;
  }
  auto a = noisy_saw(n, 1), b = noisy_saw(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::dtw(a, b, distance::kNoAbandon, simd));
  }
  state.SetLabel(distance::simd_name(simd));
}
BENCHMARK(BM_DtwKernel)->ArgsProduct({{256, 1024}, {0, 2}});

// Early-abandoning DTW against a hopeless pair (the refinement loop's common
// case: a candidate far worse than the bucket best). The bound is 10% of the
// true distance, so the LB_Keogh envelope bound prunes the pair before any DP
// row runs; compare with BM_Dtw at the same size for the pruned-work ratio.
void BM_DtwEarlyAbandon(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = noisy_saw(n, 1), b = noisy_saw(n, 2);
  for (auto& x : b) x += 150.0;
  const double exact = distance::dtw(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::dtw(a, b, exact * 0.1));
  }
}
BENCHMARK(BM_DtwEarlyAbandon)->Range(64, 1024);

// The memo-cache probe on the synthesis hot path: canonicalize + hash +
// sharded lookup. Compare with BM_SegmentDistance to see what a hit saves.
void BM_EvalCacheHit(benchmark::State& state) {
  synth::EvalCache cache;
  const auto handler = dsl::known_handlers("vegas").fine_tuned;
  const auto canon = dsl::canonicalize(handler);
  cache.insert(42, dsl::hash_expr(*canon), canon, 1.25);
  for (auto _ : state) {
    const auto c = dsl::canonicalize(handler);
    benchmark::DoNotOptimize(cache.lookup(42, dsl::hash_expr(*c), *c));
  }
}
BENCHMARK(BM_EvalCacheHit);

void BM_Euclidean(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = noisy_saw(n, 1), b = noisy_saw(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::euclidean(a, b));
  }
}
BENCHMARK(BM_Euclidean)->Range(64, 1024);

void BM_Frechet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = noisy_saw(n, 1), b = noisy_saw(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::frechet(a, b));
  }
}
BENCHMARK(BM_Frechet)->Range(64, 512);

void BM_EvalHandler(benchmark::State& state) {
  const auto& h = *dsl::known_handlers("vegas").fine_tuned;
  cca::Signals sig;
  sig.mss = 1448;
  sig.cwnd = 50 * 1448;
  sig.acked_bytes = 1448;
  sig.rtt = 0.06;
  sig.min_rtt = 0.05;
  sig.max_rtt = 0.08;
  sig.ack_rate = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsl::eval(h, sig));
  }
}
BENCHMARK(BM_EvalHandler);

void BM_Replay(benchmark::State& state) {
  trace::Environment env;
  env.duration_s = 10.0;
  auto t = net::run_connection("reno", env);
  auto segs = trace::segment_all({t}, 20);
  const auto& h = *dsl::known_handlers("reno").fine_tuned;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::replay(h, segs.front()));
  }
  state.counters["acks"] = static_cast<double>(segs.front().samples.size());
}
BENCHMARK(BM_Replay);

// Batched bytecode replay vs. the scalar path it replaces: one compiled
// sketch, kBatchLanes hole-assignments, one segment. BM_ReplayLanesScalar
// does the same work the pre-batching loop did (fill_holes + tree-walk replay
// per candidate); the ratio is the per-candidate win the refinement loop sees.
struct ReplayBatchFixture {
  dsl::ExprPtr sketch;
  dsl::Program prog;
  std::vector<std::vector<double>> assigns;
  std::vector<const std::vector<double>*> lanes;
  trace::Segment segment;

  ReplayBatchFixture() {
    trace::Environment env;
    env.duration_s = 10.0;
    auto t = net::run_connection("reno", env);
    segment = std::move(trace::segment_all({t}, 20).front());
    sketch = dsl::to_sketch(dsl::known_handlers("reno").fine_tuned);
    prog = dsl::compile(*sketch);
    util::Rng rng(7);
    const std::size_t holes = dsl::hole_ids(*sketch).size();
    for (std::size_t lane = 0; lane < dsl::kBatchLanes; ++lane) {
      std::vector<double> a(holes);
      for (auto& v : a) v = rng.uniform(0.1, 4.0);
      assigns.push_back(std::move(a));
    }
    for (const auto& a : assigns) lanes.push_back(&a);
  }
};

void BM_ReplayBatch(benchmark::State& state) {
  static const ReplayBatchFixture fx;
  std::vector<std::vector<double>> out;
  for (auto _ : state) {
    synth::replay_batch(fx.prog, fx.lanes, fx.segment, {}, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dsl::kBatchLanes));
}
BENCHMARK(BM_ReplayBatch);

void BM_ReplayLanesScalar(benchmark::State& state) {
  static const ReplayBatchFixture fx;
  for (auto _ : state) {
    for (const auto& a : fx.assigns) {
      const auto handler = dsl::fill_holes(fx.sketch, a);
      benchmark::DoNotOptimize(synth::replay(*handler, fx.segment));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dsl::kBatchLanes));
}
BENCHMARK(BM_ReplayLanesScalar);

void BM_SegmentDistance(benchmark::State& state) {
  trace::Environment env;
  env.duration_s = 10.0;
  auto t = net::run_connection("reno", env);
  auto segs = trace::segment_all({t}, 20);
  const auto& h = *dsl::known_handlers("reno").fine_tuned;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth::segment_distance(h, segs.front(), distance::Metric::kDtw));
  }
}
BENCHMARK(BM_SegmentDistance);

void BM_Simulator(benchmark::State& state) {
  trace::Environment env;
  env.duration_s = 5.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    env.seed = seed++;
    auto t = net::run_connection("reno", env);
    benchmark::DoNotOptimize(t.samples.size());
    state.counters["acks/s"] = benchmark::Counter(static_cast<double>(t.samples.size()),
                                                  benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_Simulator)->Unit(benchmark::kMillisecond);

void BM_UnitCheck(benchmark::State& state) {
  auto sketch = dsl::to_sketch(dsl::known_handlers("vegas").fine_tuned);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsl::unit_check(*sketch));
  }
}
BENCHMARK(BM_UnitCheck);

// The trace CSV codec on the serve-smoke trace (Reno, 10 Mb/s, 40 ms, 8 s):
// what every served job and every fleet worker pays to load its trace.
trace::Trace serve_smoke_trace() {
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.040;
  env.duration_s = 8.0;
  return net::run_connection("reno", env);
}

std::string bench_csv_path() {
  return (std::filesystem::temp_directory_path() / "abg_bench_micro_trace.csv").string();
}

void BM_TraceCsvSave(benchmark::State& state) {
  const auto t = serve_smoke_trace();
  const std::string path = bench_csv_path();
  for (auto _ : state) {
    if (auto st = trace::save_csv(t, path); !st.is_ok()) {
      state.SkipWithError(st.to_string().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(t.samples.size()));
  std::remove(path.c_str());
}
BENCHMARK(BM_TraceCsvSave)->Unit(benchmark::kMillisecond);

void BM_TraceCsvLoad(benchmark::State& state) {
  const auto t = serve_smoke_trace();
  const std::string path = bench_csv_path();
  if (auto st = trace::save_csv(t, path); !st.is_ok()) {
    state.SkipWithError(st.to_string().c_str());
    return;
  }
  for (auto _ : state) {
    auto loaded = trace::load_csv(path);
    if (!loaded.ok()) {
      state.SkipWithError(loaded.status().to_string().c_str());
      break;
    }
    benchmark::DoNotOptimize(loaded->samples.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(t.samples.size()));
  std::remove(path.c_str());
}
BENCHMARK(BM_TraceCsvLoad)->Unit(benchmark::kMillisecond);

// Enumeration throughput: whole-space vs a single bucket (the §4.4 argument
// for bucketized solvers).
void BM_EnumerateWholeSpace(benchmark::State& state) {
  for (auto _ : state) {
    synth::EnumeratorOptions o;
    o.max_depth = 3;
    o.max_nodes = 5;
    o.max_holes = 2;
    auto v = synth::enumerate_all(dsl::reno_dsl(), o, 64);
    benchmark::DoNotOptimize(v.size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EnumerateWholeSpace)->Unit(benchmark::kMillisecond);

void BM_EnumerateOneBucket(benchmark::State& state) {
  for (auto _ : state) {
    synth::EnumeratorOptions o;
    o.max_depth = 3;
    o.max_nodes = 5;
    o.max_holes = 2;
    o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd, dsl::Op::kMul};
    auto v = synth::enumerate_all(dsl::reno_dsl(), o, 64);
    benchmark::DoNotOptimize(v.size());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EnumerateOneBucket)->Unit(benchmark::kMillisecond);

// Dispatch overhead of the templated ThreadPool::parallel_for. The body is a
// single multiply, so the timing is dominated by task fan-out/join; the
// regression guarded here is the old `const std::function&` signature, which
// added a type-erased indirect call (and a heap-allocated wrapper) on every
// index of every parallel loop in the refinement hot path.
void BM_ParallelForDispatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::ThreadPool pool(4);
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    pool.parallel_for(n, [&out](std::size_t i) { out[i] = i * 2654435761ull; });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelForDispatch)->Range(1, 4096);

}  // namespace

// Same contract as the table/figure benches: leave an obs run report next to
// the timings so CI can archive counter context (DTW evals, cache hits,
// early abandons) alongside the google-benchmark JSON.
int main(int argc, char** argv) {
  abg::obs::write_metrics_json_at_exit("bench_micro.metrics.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
