// Tests for the abg::api facade (batch Engine, JobSpec validation, manifest
// parsing) and the work-stealing ThreadPool scheduler it runs on.
//
// CI runs the Scheduler* and SketchStream* suites under ThreadSanitizer
// (`abg_tests_api --gtest_filter='Scheduler*:SketchStream*'`). Scheduler* is
// deliberately Z3-free: its jobs fail on load or are cancelled before they
// start (the two queue-cancel tests build real segments with the simulator,
// but a correct Engine never searches them); SketchStream* runs real jobs,
// whose prebuilt solver cannot be instrumented and is suppressed by library
// (tests/tsan.supp). Keep new scheduler tests inside the first prefix and
// synthesis out of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "abg/abagnale.hpp"
#include "net/simulator.hpp"
#include "obs/registry.hpp"
#include "synth/shard.hpp"
#include "util/json_parse.hpp"

namespace abg {
namespace {

// --- Scheduler: templated parallel_for + work stealing (Z3-free). ----------

TEST(Scheduler, ParallelForRunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(Scheduler, ParallelForHandlesEdgeSizes) {
  util::ThreadPool pool(2);
  int zero_calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);

  std::atomic<int> one_calls{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    one_calls.fetch_add(1);
  });
  EXPECT_EQ(one_calls.load(), 1);

  // More work items than workers, fewer work items than workers.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(3, [&](std::size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6u);
}

// The old signature (`const std::function<void(std::size_t)>&`) could not
// accept a move-only callable at all — this test is a compile-time proof the
// loop is now templated, plus a runtime check that captured state survives.
TEST(Scheduler, ParallelForAcceptsMoveOnlyCallable) {
  util::ThreadPool pool(2);
  auto token = std::make_unique<int>(41);
  std::atomic<int> seen{0};
  pool.parallel_for(8, [token = std::move(token), &seen](std::size_t) {
    seen.fetch_add(*token);
  });
  EXPECT_EQ(seen.load(), 8 * 41);
}

TEST(Scheduler, ParallelForPropagatesFirstException) {
  util::ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error("boom");
      completed.fetch_add(1);
    });
    FAIL() << "expected the worker exception to rethrow on the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Every non-throwing index still ran: an exception must not strand the
  // remaining tasks (the pool would deadlock on them at destruction).
  EXPECT_EQ(completed.load(), 63);
}

TEST(Scheduler, ParallelForNestsWithoutDeadlock) {
  // A parallel_for issued from inside a pool task must complete even when
  // every worker is busy: the issuing task participates (caller-runs), so
  // progress never depends on a free worker. This is the property that lets
  // Engine drivers run jobs' loops on a fully loaded shared pool.
  util::ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32u);
}

TEST(Scheduler, ConcurrentParallelForsFromManyThreads) {
  // Several external threads driving loops on one pool, as concurrent batch
  // jobs do. Each loop's own indices must stay exact under work stealing.
  util::ThreadPool pool(4);
  constexpr int kDrivers = 6;
  constexpr std::size_t kN = 2'000;
  std::vector<std::vector<std::atomic<int>>> counts(kDrivers);
  for (auto& c : counts) c = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      pool.parallel_for(kN, [&, d](std::size_t i) { counts[d][i].fetch_add(1); });
    });
  }
  for (auto& t : drivers) t.join();
  for (int d = 0; d < kDrivers; ++d) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[d][i].load(), 1) << "driver " << d << " index " << i;
    }
  }
}

TEST(Scheduler, SubmitReturnsFutureResult) {
  util::ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  auto g = pool.submit([] { return std::string("stolen"); });
  EXPECT_EQ(f.get(), 42);
  EXPECT_EQ(g.get(), "stolen");
}

TEST(Scheduler, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins only after every queued task executed
  EXPECT_EQ(ran.load(), 200);
}

// A long-lived Engine lists its live jobs and only the last
// kFinishedJobsKept finished ones, so what it holds does not grow with the
// jobs it has served. Each job names a trace file that does not exist and
// fails on load, which keeps this free of Z3 and the simulator.
TEST(Scheduler, EngineKeepsLiveJobsAndABoundedWindowOfFinishedOnes) {
  constexpr std::size_t kJobs = 2000;
  constexpr std::size_t kKept = api::Engine::kFinishedJobsKept;
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 2});
  std::vector<api::JobHandle> handles;
  for (std::size_t i = 0; i < kJobs; ++i) {
    api::JobSpec spec;
    spec.add_trace_path("abg_scheduler_no_such_trace.csv").with_dsl("reno");
    auto h = engine.submit(std::move(spec));
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    handles.push_back(*h);
    if (i % 50 == 49) {
      // Counted before the snapshot: only this thread submits, so the live
      // count can only fall in between. A job whose handle reads done
      // leaves the live list a moment later, so each driver may hold one
      // more.
      std::size_t live = engine.options().max_concurrent_jobs;
      for (const auto& handle : handles) live += handle.state() != api::JobState::kDone ? 1 : 0;
      EXPECT_LE(engine.jobs_snapshot().size(), live + kKept) << "after " << i + 1 << " jobs";
    }
  }
  engine.wait_all();
  const auto snaps = engine.jobs_snapshot();
  EXPECT_EQ(snaps.size(), kKept);
  for (const auto& s : snaps) EXPECT_EQ(s.state, api::JobState::kDone) << s.name;
  EXPECT_EQ(engine.jobs_submitted(), kJobs);
  for (const auto& h : handles) {
    EXPECT_EQ(h.wait().status.code(), util::StatusCode::kIoError) << h.name();
  }
}

// --- Option and spec validation. -------------------------------------------

TEST(ApiValidation, SynthesisOptionsCatchesBadFields) {
  synth::SynthesisOptions ok;
  EXPECT_TRUE(ok.validate().is_ok());

  synth::SynthesisOptions o = ok;
  o.initial_samples = 0;
  EXPECT_EQ(o.validate().code(), util::StatusCode::kInvalidArgument);

  o = ok;
  o.timeout_s = -1.0;
  EXPECT_EQ(o.validate().code(), util::StatusCode::kInvalidArgument);

  o = ok;
  o.resume = true;  // no checkpoint path
  EXPECT_EQ(o.validate().code(), util::StatusCode::kInvalidArgument);

  o = ok;
  o.max_depth = 0;
  EXPECT_EQ(o.validate().code(), util::StatusCode::kInvalidArgument);
}

TEST(ApiValidation, PipelineOptionsRejectsUnknownDsl) {
  core::PipelineOptions o;
  o.dsl_override = "no-such-dsl";
  const auto st = o.validate();
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(st.to_string().find("no-such-dsl"), std::string::npos);
}

TEST(ApiValidation, JobSpecNeedsInputAndConsistentSources) {
  EXPECT_EQ(api::JobSpec().validate().code(), util::StatusCode::kInvalidArgument);

  // Pre-segmented input without a DSL: nothing left to classify.
  api::JobSpec segs_only;
  segs_only.segments.emplace_back();
  EXPECT_EQ(segs_only.validate().code(), util::StatusCode::kInvalidArgument);
  segs_only.with_dsl("reno");
  EXPECT_TRUE(segs_only.validate().is_ok());

  // Segments and raw traces are mutually exclusive.
  segs_only.add_trace_path("x.csv");
  EXPECT_EQ(segs_only.validate().code(), util::StatusCode::kInvalidArgument);

  // mister880 requires an explicit DSL.
  api::JobSpec m;
  m.with_kind(api::JobSpec::Kind::kMister880).add_trace_path("x.csv");
  EXPECT_EQ(m.validate().code(), util::StatusCode::kInvalidArgument);
  m.with_dsl("reno");
  EXPECT_TRUE(m.validate().is_ok());
}

TEST(ApiValidation, EngineRejectsBadSpecEagerly) {
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h = engine.submit(api::JobSpec().with_name("broken"));  // no input
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().to_string().find("broken"), std::string::npos);
  EXPECT_EQ(engine.jobs_submitted(), 0u);

  // submit_all is all-or-nothing: one bad spec rejects the whole batch.
  std::vector<api::JobSpec> specs(2);
  specs[0].segments.emplace_back();
  specs[0].with_dsl("reno");
  auto hs = engine.submit_all(std::move(specs));
  ASSERT_FALSE(hs.ok());
  EXPECT_EQ(engine.jobs_submitted(), 0u);
}

// --- Manifest parsing. ------------------------------------------------------

TEST(Manifest, ParsesEngineAndJobFields) {
  const char* text = R"({
    "threads": 8, "max_concurrent_jobs": 2,
    "report": "out.json",
    "jobs": [
      {"name": "reno", "traces": ["a.csv", "b.csv"], "dsl": "reno",
       "timeout_s": 30, "seed": 11, "metric": "euclidean",
       "max_iterations": 2, "initial_samples": 4, "max_holes": 1,
       "repair_traces": true},
      {"traces": ["c.csv"], "kind": "mister880", "dsl": "cubic"}
    ]
  })";
  auto m = api::parse_manifest(text);
  ASSERT_TRUE(m.ok()) << m.status().to_string();
  EXPECT_EQ(m->engine.threads, 8u);
  EXPECT_EQ(m->engine.max_concurrent_jobs, 2u);
  EXPECT_EQ(m->report_path, "out.json");
  ASSERT_EQ(m->jobs.size(), 2u);

  const auto& j0 = m->jobs[0];
  EXPECT_EQ(j0.name, "reno");
  ASSERT_EQ(j0.trace_paths.size(), 2u);
  EXPECT_EQ(*j0.pipeline.dsl_override, "reno");
  EXPECT_EQ(j0.pipeline.synth.timeout_s, 30.0);
  EXPECT_EQ(j0.pipeline.synth.seed, 11u);
  EXPECT_EQ(j0.pipeline.synth.metric, distance::Metric::kEuclidean);
  EXPECT_EQ(j0.pipeline.synth.max_iterations, 2);
  EXPECT_EQ(j0.pipeline.synth.initial_samples, 4);
  EXPECT_EQ(j0.pipeline.synth.max_holes, 1);
  EXPECT_TRUE(j0.load.repair);
  EXPECT_TRUE(j0.validate().is_ok());

  EXPECT_EQ(m->jobs[1].kind, api::JobSpec::Kind::kMister880);
}

TEST(Manifest, RejectsStructuralMistakes) {
  // Unknown keys anywhere are errors, not silently ignored defaults.
  EXPECT_EQ(api::parse_manifest(R"({"jobz": []})").status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(api::parse_manifest(
                R"({"jobs": [{"traces": ["a.csv"], "timeout": 5}]})")
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  // "simd" is as stray as any other key: the DTW kernel is a property of
  // the process (ABG_SIMD), not of a job.
  const auto simd_key =
      api::parse_manifest(R"({"jobs": [{"traces": ["a.csv"], "simd": "avx2"}]})").status();
  EXPECT_EQ(simd_key.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(simd_key.to_string().find("unknown job key 'simd'"), std::string::npos)
      << simd_key.to_string();
  // So is "share_eval_cache": every job of an Engine shares its cache, and
  // isolation means a second Engine.
  const auto cache_key =
      api::parse_manifest(R"({"share_eval_cache": false, "jobs": [{"traces": ["a.csv"]}]})")
          .status();
  EXPECT_EQ(cache_key.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(cache_key.to_string().find("unknown manifest key 'share_eval_cache'"),
            std::string::npos)
      << cache_key.to_string();
  // Type mismatches.
  EXPECT_EQ(api::parse_manifest(R"({"jobs": [{"traces": "a.csv"}]})").status().code(),
            util::StatusCode::kInvalidArgument);
  // Numbers outside the field's integer range are rejected, not cast: a
  // 32-bit wrap (4294967297 -> 1), a fraction (6.9 -> 6), a negative seed
  // (-1 -> 2^64-1), and values whose cast is undefined behaviour (1e300).
  // Numeric seeds stop at 2^53, where doubles stop being exact integers.
  for (const char* field :
       {R"("max_iterations": 4294967297)", R"("initial_samples": 6.9)", R"("seed": -1)",
        R"("seed": 1e300)", R"("seed": 1e17)", R"("max_depth": -1e300)",
        R"("concretize_budget": 1e300)", R"("exhaustive_cap": -1)",
        R"("final_validation_segments": 2.5)"}) {
    const std::string manifest =
        std::string(R"({"jobs": [{"traces": ["a.csv"], )") + field + "}]}";
    EXPECT_EQ(api::parse_manifest(manifest).status().code(),
              util::StatusCode::kInvalidArgument)
        << field;
  }
  EXPECT_EQ(api::parse_manifest(R"({"threads": 1.5, "jobs": [{"traces": ["a.csv"]}]})")
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  // In range stays accepted: whole numbers, 2^53 itself, and decimal-string
  // seeds over the full u64 range.
  for (const char* field : {R"("max_iterations": 4)", R"("seed": 9007199254740992)",
                            R"("seed": "18446744073709551615")", R"("initial_samples": 6.0)"}) {
    const std::string manifest =
        std::string(R"({"jobs": [{"traces": ["a.csv"], )") + field + "}]}";
    EXPECT_TRUE(api::parse_manifest(manifest).ok()) << field;
  }
  // Empty sweeps and syntax errors.
  EXPECT_EQ(api::parse_manifest(R"({"jobs": []})").status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(api::parse_manifest("{").status().code(), util::StatusCode::kParseError);
  // Error context names the offending job.
  const auto st = api::parse_manifest(R"({"jobs": [{"traces": ["a.csv"]},
                                                   {"traces": []}]})")
                      .status();
  EXPECT_NE(st.to_string().find("jobs[1]"), std::string::npos);
}

// --- Engine end-to-end (uses the synthesis loop, so Z3 territory). ----------

std::vector<trace::Segment> cca_segments(const char* cca, std::uint64_t seed) {
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.04;
  env.duration_s = 10.0;
  env.seed = seed;
  auto t = net::run_connection(cca, env);
  return trace::segment_all({trace::trim_warmup(t, 2.0)}, 20);
}

synth::SynthesisOptions quick_opts() {
  synth::SynthesisOptions o;
  o.initial_samples = 6;
  o.initial_keep = 3;
  o.initial_segments = 2;
  o.concretize_budget = 12;
  o.max_iterations = 2;
  o.exhaustive_cap = 60;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.max_holes = 2;
  o.threads = 2;
  o.seed = 5;
  return o;
}

api::JobSpec quick_job(const std::string& name, const dsl::Dsl& d,
                       std::vector<trace::Segment> segs) {
  api::JobSpec spec;
  spec.with_name(name).with_custom_dsl(d).with_segments(std::move(segs));
  spec.pipeline.synth = quick_opts();
  return spec;
}

void expect_same_synthesis(const synth::SynthesisResult& a, const synth::SynthesisResult& b,
                           const std::string& label) {
  ASSERT_EQ(a.best.valid(), b.best.valid()) << label;
  if (a.best.valid()) {
    EXPECT_EQ(dsl::to_string(*a.best.handler), dsl::to_string(*b.best.handler)) << label;
    EXPECT_EQ(a.best.distance, b.best.distance) << label;  // exact, not approximate
  }
  EXPECT_EQ(a.total_sketches, b.total_sketches) << label;
  EXPECT_EQ(a.total_handlers_scored, b.total_handlers_scored) << label;
  EXPECT_EQ(a.candidates_validated, b.candidates_validated) << label;
  ASSERT_EQ(a.iterations.size(), b.iterations.size()) << label;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    ASSERT_EQ(a.iterations[i].buckets.size(), b.iterations[i].buckets.size()) << label;
    for (std::size_t j = 0; j < a.iterations[i].buckets.size(); ++j) {
      EXPECT_EQ(a.iterations[i].buckets[j].label, b.iterations[i].buckets[j].label) << label;
      EXPECT_EQ(a.iterations[i].buckets[j].score, b.iterations[i].buckets[j].score)
          << label << " iter " << i << " rank " << j;
    }
  }
}

// The batch acceptance criterion: a 4-job batch on a shared pool + shared
// cache produces bit-identical results to the same 4 jobs run sequentially
// through the legacy entry point.
TEST(EngineGolden, FourJobBatchMatchesSequentialRuns) {
  struct Case {
    const char* name;
    const dsl::Dsl dsl;
    std::vector<trace::Segment> segs;
  };
  std::vector<Case> cases;
  cases.push_back({"reno-a", dsl::reno_dsl(), cca_segments("reno", 21)});
  cases.push_back({"reno-b", dsl::reno_dsl(), cca_segments("reno", 22)});
  cases.push_back({"cubic-a", dsl::cubic_dsl(), cca_segments("cubic", 23)});
  cases.push_back({"reno-c", dsl::reno_dsl(), cca_segments("reno", 24)});

  std::vector<synth::SynthesisResult> sequential;
  for (const auto& c : cases) {
    sequential.push_back(synth::synthesize(c.dsl, c.segs, quick_opts()));
  }

  api::Engine engine({.threads = 4, .max_concurrent_jobs = 2});
  std::vector<api::JobHandle> handles;
  for (const auto& c : cases) {
    auto h = engine.submit(quick_job(c.name, c.dsl, c.segs));
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    handles.push_back(*h);
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const api::JobResult& r = handles[i].wait();
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    EXPECT_EQ(r.name, cases[i].name);
    expect_same_synthesis(sequential[i], r.pipeline.synthesis, cases[i].name);
  }
}

// Satellite 3: cross-job cache sharing. The second identical job must hit
// the shared cache (hits > 0) and still return bit-identical results to a
// fully isolated run.
TEST(EngineCacheSharing, SecondJobHitsSharedCacheWithIdenticalResults) {
  const auto segs = cca_segments("reno", 21);
  const auto isolated = synth::synthesize(dsl::reno_dsl(), segs, quick_opts());

  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h1 = engine.submit(quick_job("first", dsl::reno_dsl(), segs));
  auto h2 = engine.submit(quick_job("second", dsl::reno_dsl(), segs));
  ASSERT_TRUE(h1.ok() && h2.ok());
  const api::JobResult& r1 = h1->wait();
  const api::JobResult& r2 = h2->wait();
  ASSERT_TRUE(r1.ok() && r2.ok());

  expect_same_synthesis(isolated, r1.pipeline.synthesis, "first");
  expect_same_synthesis(isolated, r2.pipeline.synthesis, "second");

  // Per-job attribution: the second job re-derives the same canonical
  // handlers over the same segment fingerprint, so the shared cache answers.
  EXPECT_GT(r2.cache_hits, isolated.cache_hits);
  EXPECT_GT(r2.cache_hits, 0u);
  // And with one driver the jobs ran back to back, so job 2's hits come from
  // job 1's inserts, not its own.
  EXPECT_LT(r2.cache_misses, r1.cache_misses + r1.cache_hits);
}

TEST(Engine, SeparateEnginesIsolateEvalCaches) {
  const auto segs = cca_segments("reno", 21);
  // Each Engine owns its cache, so one job per Engine is a fully isolated run.
  api::Engine first({.threads = 2, .max_concurrent_jobs = 1});
  api::Engine second({.threads = 2, .max_concurrent_jobs = 1});
  auto h1 = first.submit(quick_job("first", dsl::reno_dsl(), segs));
  ASSERT_TRUE(h1.ok());
  const api::JobResult& r1 = h1->wait();
  auto h2 = second.submit(quick_job("second", dsl::reno_dsl(), segs));
  ASSERT_TRUE(h2.ok());
  const api::JobResult& r2 = h2->wait();
  // Identical jobs, isolated caches: identical cache traffic, no cross-job
  // hits beyond what one run generates for itself.
  EXPECT_EQ(r1.cache_hits, r2.cache_hits);
  EXPECT_EQ(r1.cache_misses, r2.cache_misses);
  expect_same_synthesis(r1.pipeline.synthesis, r2.pipeline.synthesis, "isolated pair");
}

TEST(Engine, Mister880JobMatchesDirectCall) {
  const auto segs = cca_segments("reno", 21);
  synth::Mister880Options opts;
  opts.max_sketches = 40;
  opts.concretize_budget = 8;
  opts.max_holes = 1;
  opts.max_depth = 3;
  opts.max_nodes = 5;
  const auto direct = synth::mister880_synthesize(dsl::reno_dsl(), segs, opts);
  api::JobSpec spec;
  spec.with_kind(api::JobSpec::Kind::kMister880)
      .with_custom_dsl(dsl::reno_dsl())
      .with_segments(segs);
  spec.mister880 = opts;
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h = engine.submit(std::move(spec));
  ASSERT_TRUE(h.ok()) << h.status().to_string();
  const api::JobResult& r = h->wait();
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.segments_total, segs.size());
  EXPECT_EQ(direct.found(), r.mister880.found());
  EXPECT_EQ(direct.sketches_tried, r.mister880.sketches_tried);
  EXPECT_EQ(direct.handlers_tried, r.mister880.handlers_tried);
  if (direct.found()) {
    EXPECT_EQ(dsl::to_string(*direct.handler), dsl::to_string(*r.mister880.handler));
  }
}

TEST(Engine, PollWaitAndStreamedIterations) {
  const auto segs = cca_segments("reno", 21);
  std::atomic<int> streamed{0};
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto spec = quick_job("watched", dsl::reno_dsl(), segs);
  spec.with_iteration_callback([&](const synth::IterationReport&) { streamed.fetch_add(1); });
  auto h = engine.submit(std::move(spec));
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->valid());
  EXPECT_EQ(h->name(), "watched");

  const api::JobResult& r = h->wait();
  EXPECT_EQ(h->state(), api::JobState::kDone);
  ASSERT_NE(h->poll(), nullptr);
  EXPECT_EQ(h->poll(), &r);  // poll and wait expose the same record
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<std::size_t>(streamed.load()),
            r.pipeline.synthesis.iterations.size());
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(r.exit_class(), 0);
}

TEST(Engine, CancelPreemptsJobWithBestSoFar) {
  const auto segs = cca_segments("reno", 21);
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});

  // Park the driver on a long-ish first job, then cancel the queued second
  // job before it starts; it must come back cancelled, not run to completion.
  auto first = engine.submit(quick_job("long", dsl::reno_dsl(), segs));
  ASSERT_TRUE(first.ok());
  auto second = engine.submit(quick_job("cancelled", dsl::reno_dsl(), segs));
  ASSERT_TRUE(second.ok());
  second->cancel();
  const api::JobResult& r = second->wait();
  EXPECT_EQ(r.status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(r.pipeline.synthesis.partial);
  EXPECT_EQ(r.exit_class(), util::exit_code(util::StatusCode::kCancelled));
  first->wait();
}

// A latch a test opens once. Its destructor opens it too, so a failed
// assertion cannot leave a driver parked on it while the Engine drains.
class Gate {
 public:
  ~Gate() { open(); }
  void open() {
    {
      std::lock_guard lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// A job cancelled while it waits in the queue ends inside cancel(), on the
// cancelling thread: it never starts, and it does not wait for the driver
// the job ahead of it holds. That job is parked in its start callback, so
// nothing here depends on timing.
TEST(Scheduler, CancelledQueuedJobEndsWithoutStarting) {
  std::atomic<int> starts{0}, completions{0};  // outlive the engine's jobs
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  Gate parked, release;  // after the engine: opened before it drains
  api::JobSpec first_spec;
  first_spec.with_name("parked")
      .add_trace_path("abg_scheduler_no_such_trace.csv")
      .with_dsl("reno")
      .with_start_callback([&] {
        parked.open();
        release.wait();
      });
  auto first = engine.submit(std::move(first_spec));
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  parked.wait();

  auto spec = quick_job("cancelled", dsl::reno_dsl(), cca_segments("reno", 21));
  spec.with_start_callback([&] { starts.fetch_add(1); })
      .with_completion_callback([&](const api::JobResult&) { completions.fetch_add(1); });
  auto second = engine.submit(std::move(spec));
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(engine.jobs_queued(), 1u);
  EXPECT_TRUE(second->cancel());
  ASSERT_NE(second->poll(), nullptr) << "the cancelled job waits for the parked driver";
  const api::JobResult& r = second->wait();
  EXPECT_EQ(first->poll(), nullptr);
  EXPECT_EQ(engine.jobs_queued(), 0u);
  EXPECT_EQ(r.status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(r.pipeline.synthesis.partial);
  EXPECT_EQ(r.pipeline.synthesis.total_sketches, 0u);
  EXPECT_EQ(completions.load(), 1);
  EXPECT_FALSE(second->cancel());  // already ended

  release.open();
  EXPECT_EQ(first->wait().status.code(), util::StatusCode::kIoError);
  engine.wait_all();
  EXPECT_EQ(starts.load(), 0);
  EXPECT_EQ(completions.load(), 1);
}

// A job whose caller token fired before it was submitted is ended by the
// driver that picks it up, before anything of the search runs.
TEST(Scheduler, JobCancelledBeforeSubmitNeverStarts) {
  util::CancellationToken caller;  // outlives the engine's use of it
  caller.cancel();
  auto& enumerated = obs::counter("synth.sketches_enumerated");
  const std::uint64_t enumerated_before = enumerated.value();
  std::atomic<int> starts{0};
  auto spec = quick_job("pre-cancelled", dsl::reno_dsl(), cca_segments("reno", 21));
  spec.pipeline.synth.cancel = &caller;
  spec.with_start_callback([&] { starts.fetch_add(1); });

  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h = engine.submit(std::move(spec));
  ASSERT_TRUE(h.ok()) << h.status().to_string();
  const api::JobResult& r = h->wait();
  EXPECT_EQ(r.status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(r.pipeline.synthesis.partial);
  EXPECT_EQ(r.exit_class(), util::exit_code(util::StatusCode::kCancelled));
  EXPECT_EQ(r.pipeline.synthesis.total_sketches, 0u);
  EXPECT_EQ(enumerated.value(), enumerated_before);
  EXPECT_EQ(starts.load(), 0);
}

TEST(Engine, AutoNamesAndDestructorDrains) {
  const auto segs = cca_segments("reno", 21);
  std::string name;
  {
    api::Engine engine({.threads = 2});
    auto h = engine.submit(quick_job("", dsl::reno_dsl(), segs));
    ASSERT_TRUE(h.ok());
    name = h->name();
    EXPECT_EQ(engine.jobs_submitted(), 1u);
  }  // ~Engine waited for the job; no crash, no leak (ASan leg enforces)
  EXPECT_EQ(name, "job-1");
}

// --- Live introspection: jobs_snapshot / jobs_json / convergence series. ----

TEST(EngineStatus, SnapshotMatchesFinalResultsAfterCompletion) {
  const auto segs_reno = cca_segments("reno", 21);
  const auto segs_cubic = cca_segments("cubic", 23);
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h1 = engine.submit(quick_job("reno", dsl::reno_dsl(), segs_reno));
  auto h2 = engine.submit(quick_job("cubic", dsl::cubic_dsl(), segs_cubic));
  ASSERT_TRUE(h1.ok() && h2.ok());
  const api::JobResult& r1 = h1->wait();
  const api::JobResult& r2 = h2->wait();
  ASSERT_TRUE(r1.ok() && r2.ok());

  const auto snaps = engine.jobs_snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  const api::JobResult* results[] = {&r1, &r2};
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const api::JobSnapshot& s = snaps[i];
    const api::JobResult& r = *results[i];
    EXPECT_EQ(s.name, r.name);
    EXPECT_EQ(s.state, api::JobState::kDone);
    EXPECT_EQ(static_cast<std::size_t>(s.iterations), r.convergence.size());
    EXPECT_EQ(s.planned_iterations, quick_opts().max_iterations);
    EXPECT_EQ(s.cache_hits, r.cache_hits);
    EXPECT_EQ(s.cache_misses, r.cache_misses);
    EXPECT_EQ(s.elapsed_s, r.seconds);
    EXPECT_EQ(s.found, r.found());
    EXPECT_EQ(s.exit_class, r.exit_class());
    if (r.found()) {
      EXPECT_EQ(s.best_distance, r.pipeline.synthesis.best.distance);
    }
    const double total = static_cast<double>(s.cache_hits + s.cache_misses);
    if (total > 0) {
      EXPECT_DOUBLE_EQ(s.cache_hit_rate(), static_cast<double>(s.cache_hits) / total);
    }
  }
  EXPECT_STREQ(api::job_state_name(api::JobState::kDone), "done");
}

TEST(EngineStatus, JobsJsonIsValidAndMatchesSnapshot) {
  const auto segs = cca_segments("reno", 21);
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h = engine.submit(quick_job("status-job", dsl::reno_dsl(), segs));
  ASSERT_TRUE(h.ok());
  const api::JobResult& r = h->wait();
  ASSERT_TRUE(r.ok());

  auto doc = util::parse_json(engine.jobs_json());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const util::JsonValue* jobs = doc->find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->items().size(), 1u);
  const util::JsonValue& j = jobs->items()[0];
  ASSERT_NE(j.find("name"), nullptr);
  EXPECT_EQ(j.find("name")->as_string(), "status-job");
  EXPECT_EQ(j.find("state")->as_string(), "done");
  EXPECT_EQ(static_cast<std::size_t>(j.find("iterations")->as_int()), r.convergence.size());
  EXPECT_EQ(static_cast<std::uint64_t>(j.find("cache_hits")->as_int()), r.cache_hits);
  EXPECT_EQ(static_cast<std::uint64_t>(j.find("cache_misses")->as_int()), r.cache_misses);
  EXPECT_EQ(j.find("found")->as_bool(), r.found());
  EXPECT_EQ(j.find("exit_class")->as_int(), r.exit_class());
  ASSERT_NE(j.find("eta_s"), nullptr);  // present even when done (-1 = n/a)
}

TEST(EngineStatus, ConvergenceSeriesTracksIterationReports) {
  const auto segs = cca_segments("reno", 21);
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto h = engine.submit(quick_job("conv", dsl::reno_dsl(), segs));
  ASSERT_TRUE(h.ok());
  const api::JobResult& r = h->wait();
  ASSERT_TRUE(r.ok());

  const auto& iters = r.pipeline.synthesis.iterations;
  ASSERT_FALSE(r.convergence.empty());
  ASSERT_EQ(r.convergence.size(), iters.size());
  double prev_best = std::numeric_limits<double>::infinity();
  double prev_wall = 0.0;
  for (std::size_t i = 0; i < r.convergence.size(); ++i) {
    const api::ConvergencePoint& p = r.convergence[i];
    EXPECT_EQ(p.iteration, static_cast<int>(i));
    EXPECT_EQ(p.best_distance, iters[i].best_distance);
    // Best-so-far never regresses; cumulative wall time never runs backwards.
    EXPECT_LE(p.best_distance, prev_best);
    EXPECT_GE(p.wall_ms, prev_wall);
    prev_best = p.best_distance;
    prev_wall = p.wall_ms;
  }
}

// --- SketchStream: jobs in flight share one Z3 producer per spec. ----------

TEST(SketchStream, SpecsDifferingInAnyKeyFieldNeverShare) {
  dsl::Dsl d = dsl::reno_dsl();
  d.max_depth = 2;
  d.max_nodes = 3;
  synth::EnumeratorOptions base;
  base.bucket = std::vector<dsl::Op>{dsl::Op::kAdd};
  base.max_holes = 1;
  auto& live = obs::gauge("synth.streams_live");
  const double live0 = live.last();
  auto a = synth::SketchStream::lease(d, base);

  // The same spec shares, however it is spelled: explicit bounds equal to the
  // DSL's, or a DSL under another name.
  synth::EnumeratorOptions explicit_bounds = base;
  explicit_bounds.max_depth = d.max_depth;
  explicit_bounds.max_nodes = d.max_nodes;
  EXPECT_EQ(synth::SketchStream::lease(d, explicit_bounds), a);
  dsl::Dsl renamed = d;
  renamed.name = "renamed";
  EXPECT_EQ(synth::SketchStream::lease(renamed, base), a);

  std::vector<std::pair<std::string, std::shared_ptr<synth::SketchStream>>> variants;
  auto vary_dsl = [&](const char* what, auto change) {
    dsl::Dsl v = d;
    change(v);
    variants.emplace_back(what, synth::SketchStream::lease(v, base));
  };
  auto vary_opts = [&](const char* what, auto change) {
    synth::EnumeratorOptions v = base;
    change(v);
    variants.emplace_back(what, synth::SketchStream::lease(d, v));
  };
  vary_dsl("signal order", [](dsl::Dsl& v) { std::swap(v.signals.front(), v.signals.back()); });
  vary_dsl("op order", [](dsl::Dsl& v) { std::swap(v.ops.front(), v.ops.back()); });
  vary_dsl("allow_constants", [](dsl::Dsl& v) { v.allow_constants = false; });
  vary_dsl("dsl max_depth", [](dsl::Dsl& v) { v.max_depth = 3; });
  vary_dsl("dsl max_nodes", [](dsl::Dsl& v) { v.max_nodes = 4; });
  vary_opts("bucket", [](synth::EnumeratorOptions& v) { v.bucket = {{dsl::Op::kMul}}; });
  vary_opts("no bucket", [](synth::EnumeratorOptions& v) { v.bucket.reset(); });
  vary_opts("unit_check", [](synth::EnumeratorOptions& v) { v.unit_check = false; });
  vary_opts("max_holes", [](synth::EnumeratorOptions& v) { v.max_holes = 2; });
  // Distinct from the DSL variants above: the key holds the effective bound,
  // so a DSL bound of 3 and an override of 3 are the same spec.
  vary_opts("max_depth", [](synth::EnumeratorOptions& v) { v.max_depth = 4; });
  vary_opts("max_nodes", [](synth::EnumeratorOptions& v) { v.max_nodes = 5; });
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].second, a) << variants[i].first;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(variants[i].second, variants[j].second)
          << variants[i].first << " vs " << variants[j].first;
    }
  }
  EXPECT_EQ(live.last(), live0 + 1 + static_cast<double>(variants.size()));

  // A second lease takes the sketch the first one produced, the same object.
  bool produced = false;
  const auto first = a->at(0, &produced);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(produced);
  auto b = synth::SketchStream::lease(d, base);
  const auto again = b->at(0, &produced);
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(produced);
  EXPECT_EQ(again->get(), first->get());

  a.reset();
  b.reset();
  variants.clear();
  EXPECT_EQ(live.last(), live0);
}

void expect_same_job(const api::JobResult& solo, const api::JobResult& got,
                     const std::string& label) {
  ASSERT_TRUE(solo.ok() && got.ok()) << label << ": " << got.status.to_string();
  expect_same_synthesis(solo.pipeline.synthesis, got.pipeline.synthesis, label);
  ASSERT_EQ(solo.convergence.size(), got.convergence.size()) << label;
  for (std::size_t i = 0; i < solo.convergence.size(); ++i) {
    EXPECT_EQ(solo.convergence[i].iteration, got.convergence[i].iteration) << label;
    EXPECT_EQ(solo.convergence[i].best_distance, got.convergence[i].best_distance) << label;
  }
}

// Two identical Reno jobs, one that differs only in max_holes and one that
// differs only in unit_check, run two at a time on one Engine. Each result
// equals the same job run alone, and the registry is empty once wait_all()
// returns. Then the batch runs again while a holder keeps every bucket stream
// of the three specs alive, as one more job in flight on each would: the
// identical jobs then share every stream, so exactly one producer is built
// per distinct spec, and no job re-derives a prefix.
TEST(SketchStream, ConcurrentJobsMatchSoloRunsWithOneProducerPerSpec) {
  const auto reno = dsl::reno_dsl();
  const auto segs = cca_segments("reno", 21);
  std::vector<api::JobSpec> specs{quick_job("reno-a", reno, segs), quick_job("holes", reno, segs),
                                  quick_job("units", reno, segs), quick_job("reno-b", reno, segs)};
  specs[1].pipeline.synth.max_holes = 1;
  specs[2].pipeline.synth.unit_check = false;
  const std::size_t distinct = 3;  // reno-b is reno-a's spec

  auto& built = obs::counter("synth.enumerators_built");
  auto& rederived = obs::counter("synth.streams_rederived");
  auto& shared = obs::counter("synth.stream_sketches_shared");
  auto& live = obs::gauge("synth.streams_live");
  const double live0 = live.last();

  std::vector<api::JobResult> solo;
  std::uint64_t solo_built = 0;  // each stream's first producer
  {
    api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
    for (std::size_t i = 0; i < distinct; ++i) {
      const auto built0 = built.value();
      const auto rederived0 = rederived.value();
      const auto shared0 = shared.value();
      auto h = engine.submit(specs[i]);
      ASSERT_TRUE(h.ok()) << h.status().to_string();
      solo.push_back(h->wait());
      solo_built += (built.value() - built0) - (rederived.value() - rederived0);
      // A job alone shares nothing and keeps nothing.
      EXPECT_EQ(shared.value(), shared0) << specs[i].name;
      EXPECT_EQ(live.last(), live0) << specs[i].name;
    }
  }
  solo.push_back(solo[0]);
  ASSERT_GT(solo_built, 0u);

  auto run_batch = [&] {
    api::Engine engine({.threads = 2, .max_concurrent_jobs = 2});
    std::vector<api::JobHandle> handles;
    for (const auto& spec : specs) {
      auto h = engine.submit(spec);
      EXPECT_TRUE(h.ok()) << h.status().to_string();
      if (h.ok()) handles.push_back(*h);
    }
    engine.wait_all();
    ASSERT_EQ(handles.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_same_job(solo[i], *handles[i].poll(), specs[i].name);
    }
  };

  // Unpinned: how much reno-a and reno-b share depends on scheduling.
  run_batch();
  EXPECT_EQ(live.last(), live0);

  // Pinned by the holder's leases, which build the producers but take no
  // sketches.
  const auto built0 = built.value();
  std::vector<synth::BucketSearchState> holder;
  for (std::size_t i = 0; i < distinct; ++i) {
    for (auto& b : synth::make_buckets(reno)) {
      synth::BucketSearchState st;
      st.bucket = std::move(b);
      synth::ensure_bucket_enumerator(reno, specs[i].pipeline.synth, st);
      holder.push_back(std::move(st));
    }
  }
  EXPECT_EQ(live.last(), live0 + static_cast<double>(holder.size()));
  const auto shared0 = shared.value();
  const auto rederived0 = rederived.value();
  run_batch();
  EXPECT_EQ(built.value() - built0, solo_built);
  EXPECT_EQ(rederived.value(), rederived0);
  // Of the sketches reno-a and reno-b both take, whichever job comes second
  // finds each one already produced.
  EXPECT_EQ(shared.value() - shared0, solo[0].pipeline.synthesis.total_sketches);
  holder.clear();
  EXPECT_EQ(live.last(), live0);
}

// The benchmark's §6.1 Reno job: three 15 s Reno traces, quick-scale bounds.
// 18 of the 128 buckets fit in 7 nodes and build a Z3 producer.
api::JobSpec sec61_reno_job() {
  auto envs = net::default_environments(3, 101);
  for (auto& e : envs) e.duration_s = 15.0;
  envs[1].random_loss = 0.002;
  envs[2].cross_traffic_bps = 0.3 * envs[2].bandwidth_bps;
  std::vector<trace::Trace> steady;
  for (const auto& t : net::collect_traces("reno", envs)) {
    steady.push_back(trace::trim_warmup(t, 2.0));
  }
  synth::SynthesisOptions o;
  o.initial_samples = 8;
  o.concretize_budget = 24;
  o.max_iterations = 4;
  o.exhaustive_cap = 300;
  o.max_depth = 3;
  o.max_nodes = 7;
  o.max_holes = 3;
  o.dopts.max_points = 128;
  o.timeout_s = 300.0;
  o.initial_keep = 5;
  o.seed = 7;
  api::JobSpec spec;
  spec.with_name("reno_sec61")
      .with_segments(trace::segment_all(steady, 20, false))
      .with_custom_dsl(dsl::reno_dsl())
      .with_synthesis_options(o);
  return spec;
}

// The §6.1 job on 3 threads. Once a pass ends, only the buckets the top-k
// cut retains, that can still yield sketches, and that rank among the
// pool's 3 best finished ones may hold a producer: each cut bucket's
// producer is dropped during the pass that proves it cut, by the pass task
// that proves it, and so is each one the pool's width leaves out. Every
// producer beyond the 18 first ones re-derives a dropped bucket's prefix.
// The result is the benchmark's golden.
TEST(SketchStream, CutBucketsReleaseTheirProducersDuringThePass) {
  constexpr std::size_t kThreads = 3;
  auto& producers = obs::gauge("synth.producers_live");
  auto& built = obs::counter("synth.enumerators_built");
  auto& rederived = obs::counter("synth.streams_rederived");
  struct Seen {
    std::size_t survivors;
    double producers;
  };
  std::vector<Seen> seen;
  api::JobSpec spec = sec61_reno_job();
  spec.with_iteration_callback([&](const synth::IterationReport& rep) {
    std::size_t survivors = 0;
    for (const auto& b : rep.buckets) survivors += b.retained && !b.exhausted ? 1 : 0;
    const auto held = static_cast<double>(std::min(survivors, kThreads));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (producers.last() > held && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    seen.push_back({survivors, producers.last()});
  });

  const auto built0 = built.value();
  const auto rederived0 = rederived.value();
  api::Engine engine({.threads = kThreads, .max_concurrent_jobs = 1});
  auto h = engine.submit(std::move(spec));
  ASSERT_TRUE(h.ok()) << h.status().to_string();
  const api::JobResult& r = h->wait();
  ASSERT_TRUE(r.ok()) << r.status.to_string();

  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen[0].survivors, 11u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_LE(seen[i].producers, static_cast<double>(std::min(seen[i].survivors, kThreads)))
        << "iteration " << i;
  }
  EXPECT_EQ((built.value() - built0) - (rederived.value() - rederived0), 18u);
  EXPECT_EQ(r.pipeline.handler_string(), "cwnd + (reno-inc * 1)");
  EXPECT_EQ(r.pipeline.distance(), 0x1.38ef84041b166p+0);
  EXPECT_EQ(r.pipeline.synthesis.total_sketches, 885u);
  EXPECT_EQ(r.pipeline.synthesis.total_handlers_scored, 22918u);
  ASSERT_EQ(r.convergence.size(), 3u);
  for (const auto& p : r.convergence) EXPECT_EQ(p.best_distance, 0x1.c1f3cfb1cf3a8p-1);
}

// How many producers a pool keeps must not move the run. The §6.1 job on a
// 1-thread pool, which keeps one finished bucket's producer per pass and
// re-derives the prefixes of the others it names again, and on an 8-thread
// pool, which keeps up to 8, agree bit for bit on the winner, its distance,
// the work counts, every iteration's bucket scores and the convergence
// series. On each, at most P producers are held and P + 1 pass tasks run
// (parallel_for's caller runs tasks too), so at most 2P + 1 are live.
TEST(SketchStream, PoolWidthEvictionKeepsTheRunBitIdentical) {
  auto& producers = obs::gauge("synth.producers_live");
  auto& rederived = obs::counter("synth.streams_rederived");
  const api::JobSpec spec = sec61_reno_job();
  struct Run {
    api::JobResult result;
    std::uint64_t rederived = 0;
    double producers_high_water = 0.0;
  };
  auto run = [&](std::size_t threads) {
    Run out;
    EXPECT_EQ(producers.last(), 0.0);
    producers.reset();  // no producer is live, so only the high-water moves
    const auto rederived0 = rederived.value();
    api::Engine engine({.threads = threads, .max_concurrent_jobs = 1});
    auto h = engine.submit(spec);
    EXPECT_TRUE(h.ok()) << h.status().to_string();
    if (h.ok()) out.result = h->wait();
    out.rederived = rederived.value() - rederived0;
    out.producers_high_water = producers.max();
    return out;
  };
  const Run narrow = run(1);
  const Run wide = run(8);
  ASSERT_TRUE(narrow.result.ok()) << narrow.result.status.to_string();
  ASSERT_TRUE(wide.result.ok()) << wide.result.status.to_string();

  EXPECT_GT(narrow.rederived, 0u);
  EXPECT_LE(narrow.producers_high_water, 2.0 * 1 + 1);
  EXPECT_LE(wide.producers_high_water, 2.0 * 8 + 1);

  const synth::SynthesisResult& a = narrow.result.pipeline.synthesis;
  const synth::SynthesisResult& b = wide.result.pipeline.synthesis;
  EXPECT_EQ(narrow.result.pipeline.handler_string(), "cwnd + (reno-inc * 1)");
  EXPECT_EQ(narrow.result.pipeline.handler_string(), wide.result.pipeline.handler_string());
  EXPECT_EQ(narrow.result.pipeline.distance(), wide.result.pipeline.distance());
  EXPECT_EQ(a.total_sketches, b.total_sketches);
  EXPECT_EQ(a.total_handlers_scored, b.total_handlers_scored);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const auto& x = a.iterations[i].buckets;
    const auto& y = b.iterations[i].buckets;
    ASSERT_EQ(x.size(), y.size()) << "iteration " << i;
    for (std::size_t j = 0; j < x.size(); ++j) {
      EXPECT_EQ(x[j].label, y[j].label) << "iteration " << i << ", rank " << j;
      EXPECT_EQ(x[j].score, y[j].score) << "iteration " << i << ", " << x[j].label;
      EXPECT_EQ(x[j].sketches_enumerated, y[j].sketches_enumerated) << x[j].label;
      EXPECT_EQ(x[j].handlers_scored, y[j].handlers_scored) << x[j].label;
      EXPECT_EQ(x[j].exhausted, y[j].exhausted) << x[j].label;
      EXPECT_EQ(x[j].retained, y[j].retained) << x[j].label;
    }
  }
  ASSERT_EQ(narrow.result.convergence.size(), wide.result.convergence.size());
  for (std::size_t i = 0; i < narrow.result.convergence.size(); ++i) {
    EXPECT_EQ(narrow.result.convergence[i].best_distance, wide.result.convergence[i].best_distance)
        << "iteration " << i;
  }
}

// --- Memory: an idle Engine holds none of its finished jobs' Z3 memory. -----

// ASan and TSan replace malloc (freed blocks sit in quarantine), so neither
// glibc's mmap threshold nor the process's RSS says anything about ours there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ABG_TEST_SANITIZER_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ABG_TEST_SANITIZER_MALLOC 1
#endif
#endif

double process_rss_mb() {
  (void)obs::snapshot();  // samples process.rss_mb
  return obs::gauge("process.rss_mb").last();
}

// The serve-smoke job (the served and dist3 benchmark job) 8 times, one after
// another, on one 3-thread Engine. Each job builds 11 Z3 producers of about
// 17 MB; under glibc's dynamic mmap threshold the torn-down ones stayed
// resident in the pool threads' arenas, 150-230 MB after 8 jobs. Between
// jobs no producer is live, so the enumerator also trims the arenas; then 4
// more jobs run beside a held producer of another spec, so that trim never
// runs, and each job's producers must give their contexts back on their own
// (without the fixed mmap threshold RSS rose by 200-275 MB there).
TEST(Memory, IdleRssReturnsAfterEachJob) {
#if defined(ABG_TEST_SANITIZER_MALLOC)
  GTEST_SKIP() << "the sanitizer's allocator replaces glibc malloc and quarantines frees";
#elif !defined(__GLIBC__)
  GTEST_SKIP() << "the enumerator fixes the mmap threshold on glibc only";
#else
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.040;
  env.duration_s = 8.0;
  const std::string csv =
      testing::TempDir() + "abg_memory_served_" + std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(trace::save_csv(net::run_connection("reno", env), csv).is_ok());
  auto spec = api::parse_job_spec(
      "{\"traces\": [\"" + csv + "\"], \"dsl\": \"reno\", \"timeout_s\": 300, "
      "\"max_iterations\": 3, \"initial_samples\": 6, \"concretize_budget\": 12, "
      "\"max_depth\": 3, \"max_nodes\": 5, \"max_holes\": 2, \"seed\": 5}");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();

  auto& producers = obs::gauge("synth.producers_live");
  api::Engine engine({.threads = 3, .max_concurrent_jobs = 1});
  const double before = process_rss_mb();
  for (int job = 0; job < 8; ++job) {
    auto h = engine.submit(*spec);
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    const auto r = h->wait();
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    EXPECT_EQ(producers.last(), 0.0) << "job " << job;
    const double rss = process_rss_mb();
    EXPECT_LE(rss - before, 48.0) << "job " << job << ": " << before << " -> " << rss << " MB";
  }

  synth::EnumeratorOptions small;
  small.max_depth = 2;
  small.max_nodes = 3;
  synth::SketchEnumerator held(dsl::reno_dsl(), small);
  ASSERT_TRUE(held.next().has_value());
  const double with_held = process_rss_mb();
  for (int job = 0; job < 4; ++job) {
    auto h = engine.submit(*spec);
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    const auto r = h->wait();
    ASSERT_TRUE(r.ok()) << r.status.to_string();
    EXPECT_EQ(producers.last(), 1.0) << "held, job " << job;
    const double rss = process_rss_mb();
    EXPECT_LE(rss - with_held, 96.0)
        << "held, job " << job << ": " << with_held << " -> " << rss << " MB";
  }
  std::remove(csv.c_str());
#endif
}

// A finished job's record outlives the job: its handle, and the Engine's list
// of the last 64 finished jobs, pin it. Its inputs and callbacks must not
// ride along. 64 jobs, each carrying a 2 MB segment pool and a completion
// callback that holds a sentinel, are cancelled as soon as they are
// submitted. Once all have ended, with every handle still held, no callback
// holds the sentinel and the in-use heap is back near where it started
// (it kept the 128 MB of pools when the records kept their inputs).
TEST(Memory, FinishedJobsReleaseTheirInputs) {
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.040;
  env.duration_s = 8.0;
  const std::vector<trace::Segment> base =
      trace::segment_trace(net::run_connection("reno", env), 20, false);
  ASSERT_FALSE(base.empty());
  std::vector<trace::Segment> pool;
  std::size_t bytes = 0;
  while (bytes < (2u << 20)) {
    for (const auto& seg : base) {
      pool.push_back(seg);
      bytes += seg.samples.size() * sizeof(trace::AckSample);
    }
  }
  synth::SynthesisOptions o;
  o.initial_samples = 2;
  o.concretize_budget = 4;
  o.max_iterations = 1;
  o.max_depth = 2;
  o.max_nodes = 3;
  o.max_holes = 1;
  o.seed = 3;
  const auto sentinel = std::make_shared<int>(0);
  auto job = [&](int i) {
    api::JobSpec spec;
    spec.with_name("pinned-" + std::to_string(i))
        .with_segments(pool)
        .with_custom_dsl(dsl::reno_dsl())
        .with_synthesis_options(o)
        .with_completion_callback([sentinel](const api::JobResult&) {});
    return spec;
  };
#if defined(__GLIBC__) && !defined(ABG_TEST_SANITIZER_MALLOC)
  const auto heap_in_use_mb = [] {
    const struct mallinfo2 m = mallinfo2();
    return static_cast<double>(m.uordblks + m.hblkhd) / (1 << 20);
  };
#endif

  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  // One job first, so what the first run of the search leaves for the rest
  // of the process (Z3's globals, registered metrics) is in the baseline.
  auto first = engine.submit(job(0));
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  first->cancel();
  first->wait();
#if defined(__GLIBC__) && !defined(ABG_TEST_SANITIZER_MALLOC)
  const double before = heap_in_use_mb();
#endif
  std::vector<api::JobHandle> handles;
  for (int i = 1; i <= 64; ++i) {
    auto h = engine.submit(job(i));
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    h->cancel();
    handles.push_back(*h);
  }
  engine.wait_all();
  for (const auto& h : handles) ASSERT_NE(h.poll(), nullptr) << h.name();
  EXPECT_EQ(sentinel.use_count(), 1) << "a finished job still holds its callbacks";
#if defined(__GLIBC__) && !defined(ABG_TEST_SANITIZER_MALLOC)
  const double after = heap_in_use_mb();
  EXPECT_LE(after - before, 16.0) << "in-use heap " << before << " -> " << after << " MB";
#endif
}

// A long-lived Engine (abagnale_serve's) must not grow with the jobs it has
// served. About 200 small jobs run to completion one after another, three
// times past the finished-jobs window: the Engine lists at most the live
// jobs plus the last kFinishedJobsKept, and once that window is full (from
// job 80 on) the in-use heap stays flat. Submit latency is printed for the
// record, not asserted: it is a copy of a list this bounded.
TEST(Memory, EngineStaysFlatPastTheFinishedWindow) {
  constexpr int kJobs = 200;
  constexpr int kSteady = 80;
  const auto segs = cca_segments("reno", 21);
  synth::SynthesisOptions o;
  o.initial_samples = 2;
  o.concretize_budget = 4;
  o.max_iterations = 1;
  o.max_depth = 2;
  o.max_nodes = 3;
  o.max_holes = 1;
  o.seed = 3;
#if defined(__GLIBC__) && !defined(ABG_TEST_SANITIZER_MALLOC)
  const auto heap_in_use_mb = [] {
    const struct mallinfo2 m = mallinfo2();
    return static_cast<double>(m.uordblks + m.hblkhd) / (1 << 20);
  };
  double steady_mb = 0.0;
#endif

  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  std::vector<double> submit_us;
  for (int i = 0; i < kJobs; ++i) {
#if defined(__GLIBC__) && !defined(ABG_TEST_SANITIZER_MALLOC)
    if (i == kSteady) steady_mb = heap_in_use_mb();
#endif
    api::JobSpec spec;
    spec.with_name("soak-" + std::to_string(i))
        .with_segments(segs)
        .with_custom_dsl(dsl::reno_dsl())
        .with_synthesis_options(o);
    const auto t0 = std::chrono::steady_clock::now();
    auto h = engine.submit(std::move(spec));
    submit_us.push_back(
        std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count());
    ASSERT_TRUE(h.ok()) << h.status().to_string();
    ASSERT_TRUE(h->wait().ok()) << h->wait().status.to_string();
    // This job is done; the driver that ran it may not have left the live
    // list yet.
    EXPECT_LE(engine.jobs_snapshot().size(),
              engine.options().max_concurrent_jobs + api::Engine::kFinishedJobsKept)
        << "after job " << i;
  }
  engine.wait_all();
  EXPECT_EQ(engine.jobs_snapshot().size(), api::Engine::kFinishedJobsKept);
#if defined(__GLIBC__) && !defined(ABG_TEST_SANITIZER_MALLOC)
  const double end_mb = heap_in_use_mb();
  EXPECT_LE(end_mb - steady_mb, 1.0)
      << "in-use heap " << steady_mb << " MB at job " << kSteady << ", " << end_mb
      << " MB after job " << kJobs;
  std::printf("in-use heap: %.2f MB at job %d, %.2f MB after job %d\n", steady_mb, kSteady,
              end_mb, kJobs);
#endif
  const auto median_us = [&](int from, int to) {
    std::vector<double> v(submit_us.begin() + from, submit_us.begin() + to);
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  std::printf("submit latency (median): %.1f us over jobs 0-%d, %.1f us over jobs %d-%d\n",
              median_us(0, kSteady), kSteady - 1, median_us(kSteady, kJobs), kSteady,
              kJobs - 1);
}

}  // namespace
}  // namespace abg
