// abg_perfbench: the compiled half of the end-to-end benchmark; run.py
// builds it and calls it. It never changes the system under test; it calls
// the libraries' public functions and times them from outside.
//
//   abg_perfbench env
//       One JSON line: libz3 version and the resolved DTW kernel.
//   abg_perfbench inputs WORK
//       Write the served/dist3 inputs into WORK: served.csv (the serve-smoke
//       trace) and served_job.json (its job spec, absolute trace path).
//       Prints the collection time as one JSON line.
//   abg_perfbench inproc --workload reno_sec61|sweep --work WORK
//                        --seconds S --setups K --launched-at T
//       Timed run of an in-process workload through api::Engine, after K
//       set-ups. Prints one JSON object: set-up times, one record per job,
//       and peak RSS.
//   abg_perfbench traced --workload W --work WORK --seed N --bin DIR
//       The traced per-layer run: an untimed run of the workload's jobs, a
//       replay of every job's buckets through the shard core with one span
//       per bucket and phase, and probes of the serve, WAL, checkpoint and
//       worker layers. Prints one JSON object of per-layer metrics, the
//       reconciliation verdicts, and the job records. Spans are written to
//       WORK/spans.json when the run ends.
#include <z3.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "api/engine.hpp"
#include "api/manifest.hpp"
#include "dist/coordinator.hpp"
#include "dist/http_client.hpp"
#include "dist/wire.hpp"
#include "distance/distance.hpp"
#include "distance/simd.hpp"
#include "dsl/bytecode.hpp"
#include "dsl/known_handlers.hpp"
#include "net/simulator.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/status_server.hpp"
#include "serve/service.hpp"
#include "serve/wal.hpp"
#include "synth/batch_eval.hpp"
#include "synth/buckets.hpp"
#include "synth/checkpoint.hpp"
#include "synth/replay.hpp"
#include "synth/shard.hpp"
#include "trace/sampler.hpp"
#include "trace/trace_io.hpp"
#include "util/json_parse.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace abg;
namespace fs = std::filesystem;

constexpr std::size_t kThreads = 3;  // the system's scoring pool on a 4-core host

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Worker processes this run spawned and has not reaped yet; die() stops
// them so a failed run leaves nothing behind.
std::vector<pid_t> g_children;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "abg_perfbench: %s\n", msg.c_str());
  for (const pid_t pid : g_children) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  std::exit(1);
}

// A field of /proc/<pid>/status in MB ("VmRSS", "VmHWM"); 0 when absent.
double proc_status_mb(const std::string& pid, const std::string& key) {
  std::ifstream f("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}
double self_rss_mb() { return proc_status_mb("self", "VmRSS"); }

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void parallel_for(std::size_t n, std::size_t threads, const std::function<void(std::size_t)>& f) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(threads, n); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) f(i);
    });
  }
  for (auto& th : pool) th.join();
}

struct Args {
  std::map<std::string, std::string> kv;
  std::vector<std::string> positional;

  std::string get(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) die("missing --" + k);
    return it->second;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) == 0 && i + 1 < argc) {
      a.kv[s.substr(2)] = argv[++i];
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

std::string read_text(const std::string& path) {
  std::ifstream f(path);
  if (!f) die("cannot read " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once when the run ends.

class SpanLog {
 public:
  int open(const std::string& name, const std::string& job, int parent) {
    std::lock_guard lk(mu_);
    spans_.push_back({name, job, mono_s(), 0.0, parent});
    return static_cast<int>(spans_.size());
  }
  void close(int id) {
    std::lock_guard lk(mu_);
    spans_[static_cast<std::size_t>(id - 1)].end = mono_s();
  }
  int add(const std::string& name, const std::string& job, int parent, double start,
          double end) {
    std::lock_guard lk(mu_);
    spans_.push_back({name, job, start, end, parent});
    return static_cast<int>(spans_.size());
  }
  void write(const std::string& path) const {
    obs::JsonWriter w;
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.key("id");
      w.value(static_cast<std::uint64_t>(i + 1));
      w.key("parent");
      w.value(static_cast<std::int64_t>(s.parent));
      w.key("name");
      w.value(s.name);
      w.key("job");
      w.value(s.job);
      w.key("start_s");
      w.value(s.start);
      w.key("end_s");
      w.value(s.end);
      w.end_object();
    }
    w.end_array();
    std::ofstream(path) << w.take() << "\n";
  }

 private:
  struct Span {
    std::string name, job;
    double start, end;
    int parent;
  };
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workload inputs. Trace collection is fixed (environment seed 101, as in
// the §6.1 bench), so the committed goldens apply to every run.

struct Timings {
  double collect_s = 0.0;
  double segment_s = 0.0;
};

std::vector<trace::Trace> collect_three(const std::string& cca, double cross_bps,
                                        Timings* t) {
  auto envs = net::default_environments(3, 101);
  for (auto& e : envs) e.duration_s = 15.0;
  envs[1].random_loss = 0.002;
  envs[2].cross_traffic_bps = cross_bps;
  const double t0 = mono_s();
  auto traces = net::collect_traces(cca, envs);
  t->collect_s += mono_s() - t0;
  return traces;
}

std::vector<trace::Segment> segment_pool(const std::vector<trace::Trace>& traces, double warmup_s,
                                         std::size_t min_samples, bool skip_first,
                                         Timings* t) {
  const double t0 = mono_s();
  std::vector<trace::Trace> steady;
  for (const auto& tr : traces) steady.push_back(trace::trim_warmup(tr, warmup_s));
  auto segs = trace::segment_all(steady, min_samples, skip_first);
  if (t != nullptr) t->segment_s += mono_s() - t0;
  return segs;
}

// The quick-scale bounds of bench_sec61_search_efficiency.
synth::SynthesisOptions sec61_options() {
  synth::SynthesisOptions o;
  o.initial_samples = 8;
  o.concretize_budget = 24;
  o.max_iterations = 4;
  o.exhaustive_cap = 300;
  o.max_depth = 3;
  o.max_nodes = 7;
  o.max_holes = 3;
  o.dopts.max_points = 128;
  o.timeout_s = 90.0;
  o.initial_keep = 5;
  o.seed = 7;
  return o;
}

trace::Trace load_or_die(const std::string& path, const trace::LoadOptions& opts = {}) {
  auto t = trace::load_csv(path, opts);
  if (!t.ok()) die("load " + path + ": " + t.status().to_string());
  return std::move(*t);
}

// Everything a job needs to be replayed bucket by bucket.
struct JobInputs {
  dsl::Dsl dsl;
  std::vector<trace::Segment> segments;
  synth::SynthesisOptions opts;
};

JobInputs inputs_of(const api::JobSpec& spec) {
  if (!spec.segments.empty()) return {*spec.custom_dsl, spec.segments, spec.pipeline.synth};
  std::vector<trace::Trace> traces;
  for (const auto& path : spec.trace_paths) traces.push_back(load_or_die(path, spec.load));
  return {dsl::dsl_by_name(*spec.pipeline.dsl_override),
          segment_pool(traces, spec.pipeline.warmup_s, spec.pipeline.min_segment_samples,
                       spec.pipeline.skip_first_segment, nullptr),
          spec.pipeline.synth};
}

struct Workload {
  std::vector<api::JobSpec> specs;
  api::EngineOptions engine;
};

Workload prepare_reno(Timings* t) {
  auto envs = net::default_environments(3, 101);
  auto traces = collect_three("reno", 0.3 * envs[2].bandwidth_bps, t);
  Workload w;
  api::JobSpec spec;
  spec.with_name("reno_sec61")
      .with_segments(segment_pool(traces, 2.0, 20, false, t))
      .with_custom_dsl(dsl::reno_dsl())
      .with_synthesis_options(sec61_options());
  w.specs.push_back(std::move(spec));
  w.engine.threads = kThreads;
  w.engine.max_concurrent_jobs = 1;
  return w;
}

// Four jobs in the manifest dialect: reno, cubic, vegas over traces carrying
// 3 Mb/s of cross traffic, then an exact repeat of reno. The jobs repair
// their traces on load: the simulator's lossy Cubic trace holds a sample the
// strict loader rejects.
Workload prepare_sweep(const std::string& work, Timings* t) {
  std::string jobs;
  for (const char* cca : {"reno", "cubic", "vegas"}) {
    auto traces = collect_three(cca, 3e6, t);
    std::string paths;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const std::string p = work + "/sweep_" + cca + "_" + std::to_string(i) + ".csv";
      if (auto st = trace::save_csv(traces[i], p); !st.is_ok()) die(st.to_string());
      paths += (i ? "," : "") + ("\"" + p + "\"");
    }
    jobs += std::string(jobs.empty() ? "" : ",") + "{\"name\":\"" + cca + "\",\"traces\":[" +
            paths + "],\"dsl\":\"" + cca +
            "\",\"timeout_s\":300,\"seed\":\"7\",\"max_iterations\":4,"
            "\"initial_samples\":8,\"concretize_budget\":24,\"max_depth\":3,"
            "\"max_nodes\":7,\"max_holes\":3,\"initial_keep\":5,\"exhaustive_cap\":300,"
            "\"repair_traces\":true}";
  }
  const std::string reno_job = jobs.substr(0, jobs.find("},{") + 1);
  const std::string repeat = "{\"name\":\"reno_repeat\"" + reno_job.substr(reno_job.find(','));
  const std::string text =
      "{\"threads\":3,\"max_concurrent_jobs\":2,\"jobs\":[" + jobs + "," + repeat + "]}";
  auto m = api::parse_manifest(text);
  if (!m.ok()) die("manifest: " + m.status().to_string());
  Workload w;
  w.specs = std::move(m->jobs);
  w.engine = m->engine;
  // The segment pools are built inside each job; time one build per CCA here
  // so trace.segment_s covers this workload too.
  for (std::size_t i = 0; i + 1 < w.specs.size(); ++i) {
    std::vector<trace::Trace> traces;
    for (const auto& p : w.specs[i].trace_paths) {
      traces.push_back(load_or_die(p, w.specs[i].load));
    }
    segment_pool(traces, 2.0, 20, false, t);
  }
  return w;
}

// The serve-smoke trace and job spec (10 Mb/s, 40 ms, 8 s of Reno).
void write_served_inputs(const std::string& work, Timings* t) {
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.040;
  env.duration_s = 8.0;
  const double t0 = mono_s();
  auto tr = net::run_connection("reno", env);
  if (t != nullptr) t->collect_s += mono_s() - t0;
  const std::string csv = fs::absolute(work + "/served.csv").string();
  if (auto st = trace::save_csv(tr, csv); !st.is_ok()) die(st.to_string());
  std::ofstream(work + "/served_job.json")
      << "{\"traces\": [\"" << csv << "\"], \"dsl\": \"reno\", \"timeout_s\": 300, "
      << "\"max_iterations\": 3, \"initial_samples\": 6, \"concretize_budget\": 12, "
      << "\"max_depth\": 3, \"max_nodes\": 5, \"max_holes\": 2, \"seed\": 5}\n";
}

api::JobSpec served_spec(const std::string& work) {
  auto spec = api::parse_job_spec(read_text(work + "/served_job.json"));
  if (!spec.ok()) die("served spec: " + spec.status().to_string());
  spec->with_name("served");
  return *spec;
}

Workload prepare(const std::string& workload, const std::string& work, Timings* t) {
  if (workload == "reno_sec61") return prepare_reno(t);
  if (workload == "sweep") return prepare_sweep(work, t);
  if (workload == "served" || workload == "dist3") {
    write_served_inputs(work, t);
    Workload w;
    w.specs.push_back(served_spec(work));
    std::vector<trace::Trace> traces{load_or_die(w.specs[0].trace_paths[0])};
    segment_pool(traces, 2.0, 20, false, t);
    w.engine.threads = kThreads;
    w.engine.max_concurrent_jobs = 1;
    return w;
  }
  die("unknown workload " + workload);
}

// ---------------------------------------------------------------------------
// Running jobs through api::Engine, timed from outside.

struct JobTimes {
  std::mutex mu;
  double submit_at = 0.0, submitted_at = 0.0, running_at = -1.0, done_at = 0.0;
  std::vector<double> iteration_at;
};

struct JobRun {
  api::JobHandle handle;
  std::shared_ptr<JobTimes> times;
  double rss_after_mb = 0.0;
};

JobRun submit(api::Engine& engine, api::JobSpec spec) {
  auto times = std::make_shared<JobTimes>();
  spec.with_iteration_callback([times](const synth::IterationReport&) {
    std::lock_guard lk(times->mu);
    times->iteration_at.push_back(mono_s());
  });
  spec.with_completion_callback([times](const api::JobResult&) {
    std::lock_guard lk(times->mu);
    times->done_at = mono_s();
  });
  times->submit_at = mono_s();
  auto h = engine.submit(std::move(spec));
  times->submitted_at = mono_s();
  if (!h.ok()) die("submit: " + h.status().to_string());
  return {*h, times, 0.0};
}

// Submit every spec, then wait for all. With `watch`, a thread samples each
// job's state every 0.5 ms to stamp the moment it starts running.
std::vector<JobRun> run_batch(api::Engine& engine, const std::vector<api::JobSpec>& specs,
                              bool watch) {
  std::vector<JobRun> runs;
  std::atomic<bool> stop{false};
  std::mutex runs_mu;
  std::thread watcher;
  if (watch) {
    watcher = std::thread([&] {
      while (!stop.load()) {
        {
          std::lock_guard lk(runs_mu);
          for (auto& r : runs) {
            if (r.times->running_at < 0 && r.handle.state() != api::JobState::kQueued) {
              r.times->running_at = mono_s();
            }
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  for (const auto& s : specs) {
    JobRun r = submit(engine, s);
    std::lock_guard lk(runs_mu);
    runs.push_back(std::move(r));
  }
  for (auto& r : runs) {
    r.handle.wait();
    r.rss_after_mb = self_rss_mb();
  }
  stop.store(true);
  if (watcher.joinable()) watcher.join();
  return runs;
}

void write_job(obs::JsonWriter& w, const JobRun& run) {
  const api::JobResult& r = run.handle.wait();
  const auto& syn = r.pipeline.synthesis;
  w.begin_object();
  w.key("name");
  w.value(r.name);
  w.key("submit_ms");
  w.value((run.times->submitted_at - run.times->submit_at) * 1e3);
  w.key("wall_s");
  w.value(run.times->done_at - run.times->submit_at);
  w.key("synth_seconds");
  w.value(syn.seconds);
  w.key("rss_after_mb");
  w.value(run.rss_after_mb);
  w.key("exit_class");
  w.value(static_cast<std::int64_t>(r.exit_class()));
  w.key("status");
  w.value(r.status.to_string());
  w.key("found");
  w.value(r.found());
  w.key("handler");
  w.value(r.found() ? r.pipeline.handler_string() : std::string());
  w.key("distance");
  w.value(hex(r.pipeline.distance()));
  w.key("sketches");
  w.value(static_cast<std::uint64_t>(syn.total_sketches));
  w.key("handlers");
  w.value(static_cast<std::uint64_t>(syn.total_handlers_scored));
  w.key("cache_hits");
  w.value(r.cache_hits);
  w.key("cache_misses");
  w.value(r.cache_misses);
  w.key("convergence");
  w.begin_array();
  for (const auto& p : r.convergence) w.value(hex(p.best_distance));
  w.end_array();
  w.end_object();
}

int cmd_inproc(const Args& a) {
  const std::string workload = a.get("workload");
  const std::string work = a.get("work");
  const double seconds = std::atof(a.get("seconds").c_str());
  const double launched_at = std::atof(a.get("launched-at").c_str());
  const int setups = std::max(1, std::atoi(a.get("setups").c_str()));

  // Set-up, `setups` times: inputs generated and an Engine ready to take
  // jobs. The first one counts from process launch.
  std::vector<double> setup_s;
  Workload wl;
  std::unique_ptr<api::Engine> engine;
  for (int i = 0; i < setups; ++i) {
    engine.reset();
    const double t0 = i == 0 ? launched_at : mono_s();
    Timings t;
    wl = prepare(workload, work, &t);
    engine = std::make_unique<api::Engine>(wl.engine);
    setup_s.push_back(mono_s() - t0);
  }

  // Closed loop, one client: reno_sec61 runs one job at a time, sweep one
  // batch at a time (on a fresh Engine, so every batch starts cold). A new
  // unit starts only while it is expected to end within the run's seconds;
  // at least two reno_sec61 jobs (one cold, one warm) or one sweep batch
  // always run.
  const std::size_t min_units = workload == "sweep" ? 1 : 2;
  std::vector<JobRun> runs;
  std::vector<double> unit_wall;
  const double start = mono_s();
  while (true) {
    const double u0 = mono_s();
    if (workload == "sweep") {
      if (!unit_wall.empty()) engine = std::make_unique<api::Engine>(wl.engine);
      auto batch = run_batch(*engine, wl.specs, false);
      for (auto& r : batch) runs.push_back(std::move(r));
    } else {
      auto one = run_batch(*engine, wl.specs, false);
      runs.push_back(std::move(one[0]));
    }
    unit_wall.push_back(mono_s() - u0);
    const double elapsed = mono_s() - start;
    if (unit_wall.size() >= min_units && elapsed + median(unit_wall) > seconds) break;
  }
  const double elapsed = mono_s() - start;

  obs::JsonWriter w;
  w.begin_object();
  w.key("setup_s");
  w.begin_array();
  for (double s : setup_s) w.value(s);
  w.end_array();
  w.key("elapsed_s");
  w.value(elapsed);
  w.key("unit_wall_s");
  w.begin_array();
  for (double s : unit_wall) w.value(s);
  w.end_array();
  w.key("peak_rss_mb");
  w.value(proc_status_mb("self", "VmHWM"));
  w.key("jobs");
  w.begin_array();
  for (const auto& r : runs) write_job(w, r);
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  engine.reset();
  return 0;
}

// ---------------------------------------------------------------------------
// The traced replay: drive a finished job's buckets through the shard core,
// the same calls synthesize() makes, and check the work matches its reports.

struct Replay {
  double build_s = 0, solve_s = 0, score_s = 0, teardown_s = 0;
  double critical_s = 0, validation_s = 0;
  double rss_mb_per_bucket = 0;
  std::size_t handlers = 0;
  bool reconciled = true;
  std::string mismatch;
  std::vector<synth::ScoredHandler> candidates;
  std::vector<trace::Segment> final_working;
  // Per pass: labels, enumeration target and working indices, for the
  // worker probe.
  struct Pass {
    std::vector<std::string> labels;
    std::size_t target = 0;
    std::vector<std::size_t> working;
    std::size_t report = 0;  // index into the IterationReports
    bool terminal = false;
  };
  std::vector<Pass> passes;
  std::vector<synth::BucketCheckpoint> checkpoints;
};

void note_mismatch(Replay* r, const std::string& what) {
  if (r->reconciled) r->mismatch = what;
  r->reconciled = false;
}

Replay replay_job(const JobInputs& in, const synth::SynthesisResult& ref, const std::string& job,
                  SpanLog& log, int job_span) {
  Replay out;
  synth::SynthesisOptions opts = in.opts;
  opts.dopts = synth::effective_distance_options(opts);
  std::vector<std::string> order;
  std::map<std::string, synth::BucketSearchState> states;
  for (auto& b : synth::make_buckets(in.dsl)) {
    order.push_back(b.label);
    auto& st = states[b.label];
    st.rng = util::Rng(synth::bucket_rng_seed(b.label, opts.seed));
    st.bucket = std::move(b);
  }
  const auto seg_distance = [&](const trace::Segment& x, const trace::Segment& y) {
    return distance::compute(opts.metric, synth::observed_series_pkts(x),
                             synth::observed_series_pkts(y), opts.dopts);
  };
  trace::SegmentSampler sampler(&in.segments, seg_distance, opts.seed ^ 0x5e95a1d3);
  sampler.grow_to(static_cast<std::size_t>(opts.initial_segments));
  synth::EvalCache cache;
  const auto never = [] { return false; };
  std::mutex mu;

  auto run_pass = [&](const std::vector<std::string>& labels, std::size_t target,
                      const std::vector<trace::Segment>& working, int parent) {
    double slowest = 0.0;
    parallel_for(labels.size(), kThreads, [&](std::size_t i) {
      auto& st = states.at(labels[i]);
      const double t0 = mono_s();
      synth::ensure_bucket_enumerator(in.dsl, opts, st);
      const double t1 = mono_s();
      synth::enumerate_bucket_sketches(in.dsl, opts, st, target, never);
      const double t2 = mono_s();
      synth::EvalContext ctx;
      ctx.cache = opts.use_eval_cache ? &cache : nullptr;
      ctx.fingerprint = opts.use_eval_cache ? synth::segment_set_fingerprint(working) : 0;
      synth::score_bucket_pass(in.dsl, opts, st, working, &ctx, never);
      const double t3 = mono_s();
      const int b = log.add("bucket " + labels[i], job, parent, t0, t3);
      log.add("build", job, b, t0, t1);
      log.add("solve", job, b, t1, t2);
      log.add("score", job, b, t2, t3);
      std::lock_guard lk(mu);
      out.build_s += t1 - t0;
      out.solve_s += t2 - t1;
      out.score_s += t3 - t2;
      slowest = std::max(slowest, t3 - t0);
    });
    out.critical_s += slowest;
    for (const auto& l : labels) {
      if (states.at(l).best.valid()) out.candidates.push_back(states.at(l).best);
    }
  };

  std::vector<std::string> live = order;
  const double rss0 = self_rss_mb();
  for (std::size_t i = 0; i < ref.iterations.size(); ++i) {
    const auto& rep = ref.iterations[i];
    std::vector<trace::Segment> working;
    for (std::size_t idx : sampler.selected()) working.push_back(in.segments[idx]);
    if (working.empty()) working = in.segments;
    const int it_span = log.open("iteration " + std::to_string(i + 1), job, job_span);
    run_pass(live, static_cast<std::size_t>(rep.n_target), working, it_span);
    log.close(it_span);
    out.passes.push_back({live, static_cast<std::size_t>(rep.n_target), sampler.selected(), i,
                          false});
    if (i == 0) {
      out.rss_mb_per_bucket = (self_rss_mb() - rss0) / static_cast<double>(live.size());
    }
    if (rep.buckets.size() != live.size()) note_mismatch(&out, "bucket count, iteration " + std::to_string(i + 1));
    std::vector<std::string> retained;
    for (const auto& br : rep.buckets) {
      const auto it = states.find(br.label);
      if (it == states.end() || it->second.sketches.size() != br.sketches_enumerated ||
          it->second.handlers_scored != br.handlers_scored) {
        note_mismatch(&out, "bucket " + br.label + ", iteration " + std::to_string(i + 1));
      }
      if (br.retained) retained.push_back(br.label);
    }
    live = retained;
    const bool all_done = std::all_of(live.begin(), live.end(),
                                      [&](const std::string& l) { return states.at(l).exhausted; });
    if (all_done) break;
    if (live.size() == 1) {
      std::vector<trace::Segment> final_working;
      for (std::size_t idx : sampler.selected()) final_working.push_back(in.segments[idx]);
      const int t_span = log.open("terminal phase", job, job_span);
      run_pass(live, opts.exhaustive_cap, final_working, t_span);
      log.close(t_span);
      out.passes.push_back({live, opts.exhaustive_cap, sampler.selected(), i, true});
      break;
    }
    sampler.grow_to(sampler.selected().size() + 2);
  }

  // Final validation over the deduplicated candidates, as synthesize() does.
  sampler.grow_to(opts.final_validation_segments);
  for (std::size_t idx : sampler.selected()) out.final_working.push_back(in.segments[idx]);
  std::vector<synth::ScoredHandler> unique;
  std::vector<std::size_t> hashes;
  for (const auto& c : out.candidates) {
    const std::size_t h = dsl::hash_expr(*c.handler);
    if (std::find(hashes.begin(), hashes.end(), h) != hashes.end()) continue;
    hashes.push_back(h);
    unique.push_back(c);
  }
  const int v_span = log.open("validation", job, job_span);
  synth::ScoredHandler winner;
  const double v0 = mono_s();
  for (const auto& u : unique) {
    const double d = synth::total_distance(*u.handler, out.final_working, opts.metric, opts.dopts);
    if (d < winner.distance) {
      winner = u;
      winner.distance = d;
    }
  }
  out.validation_s = mono_s() - v0;
  log.close(v_span);
  if (!ref.best.valid() || !winner.valid() || winner.distance != ref.best.distance ||
      dsl::to_string(*winner.handler) != dsl::to_string(*ref.best.handler)) {
    note_mismatch(&out, "validation winner");
  }

  std::size_t sketches = 0;
  for (const auto& l : order) {
    sketches += states.at(l).sketches.size();
    out.handlers += states.at(l).handlers_scored;
    out.checkpoints.push_back(synth::bucket_state_to_checkpoint(states.at(l)));
  }
  if (sketches != ref.total_sketches || out.handlers != ref.total_handlers_scored) {
    note_mismatch(&out, "run totals");
  }

  // Teardown: synthesize() destroys its bucket states one after another.
  const int d_span = log.open("teardown", job, job_span);
  for (const auto& l : order) {
    const double t0 = mono_s();
    states.at(l).enumerator.reset();
    out.teardown_s += mono_s() - t0;
  }
  log.close(d_span);
  return out;
}

// ---------------------------------------------------------------------------
// Probes of the serve, WAL, checkpoint and worker layers.

obs::HttpRequest request(const std::string& method, const std::string& path,
                         const std::string& body) {
  obs::HttpRequest r;
  r.method = method;
  r.path = path;
  r.body = body;
  r.headers["x-abg-client"] = "perfbench";
  return r;
}

std::string json_string_field(const std::string& body, const char* key) {
  auto doc = util::parse_json(body);
  if (!doc.ok()) return "";
  const auto* v = doc->find(key);
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

struct ServeProbe {
  double submit_ms = 0, get_ms = 0, http_rtt_ms = 0;
  std::vector<std::string> results;  // result documents of the probe's jobs
};

ServeProbe probe_service(const std::string& work, SpanLog& log) {
  ServeProbe p;
  serve::ServiceOptions so;
  so.state_dir = work + "/probe_state";
  fs::remove_all(so.state_dir);
  so.engine.threads = kThreads;
  so.engine.max_concurrent_jobs = 2;
  serve::Service svc(so);
  if (auto st = svc.start(); !st.is_ok()) die("service start: " + st.to_string());
  obs::StatusServer server;
  svc.mount(server);
  std::string err;
  if (!server.start(0, &err)) die("status server: " + err);

  const int s_span = log.open("serve probe", "served", 0);
  std::vector<double> rtt;
  for (int i = 0; i < 20; ++i) {
    const double t0 = mono_s();
    auto r = dist::http_request("127.0.0.1", server.port(), "GET", "/v1/healthz", "", 5.0);
    if (!r.ok() || r->code != 200) die("healthz failed");
    rtt.push_back((mono_s() - t0) * 1e3);
  }
  p.http_rtt_ms = median(rtt);

  const std::string body = read_text(work + "/served_job.json");
  std::vector<double> submits, gets;
  std::vector<std::string> ids;
  for (int i = 0; i < 2; ++i) {
    const double t0 = mono_s();
    auto resp = svc.handle_submit(request("POST", "/jobs", body));
    const double t1 = mono_s();
    log.add("Service::handle_submit", "served", s_span, t0, t1);
    if (resp.code != 202) die("probe submit refused: " + resp.body);
    submits.push_back((t1 - t0) * 1e3);
    ids.push_back(json_string_field(resp.body, "id"));
  }
  for (const auto& id : ids) {
    while (true) {
      const double t0 = mono_s();
      auto resp = svc.handle_get(request("GET", "/jobs/" + id, ""));
      const double t1 = mono_s();
      log.add("Service::handle_get", "served", s_span, t0, t1);
      gets.push_back((t1 - t0) * 1e3);
      const std::string state = json_string_field(resp.body, "state");
      if (state != "queued" && state != "running") break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    p.results.push_back(svc.handle_get(request("GET", "/jobs/" + id + "/result", "")).body);
  }
  log.close(s_span);
  p.submit_ms = median(submits);
  p.get_ms = median(gets);
  server.stop();
  svc.drain_and_stop();
  return p;
}

double probe_wal(const std::string& work) {
  const std::string path = work + "/probe_wal.log";
  fs::remove(path);
  serve::Wal wal;
  std::vector<std::string> records;
  if (auto st = wal.open(path, &records); !st.is_ok()) die("wal: " + st.to_string());
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const double t0 = mono_s();
    if (auto st = wal.append("perfbench\tj-" + std::to_string(i) + "\tqueued"); !st.is_ok()) {
      die("wal append: " + st.to_string());
    }
    ms.push_back((mono_s() - t0) * 1e3);
  }
  wal.close();
  return median(ms);
}

// save_checkpoint of the served job's end state (its bucket states and
// iteration reports), the payload the serve layer writes per iteration.
double probe_checkpoint(const std::string& work, const Replay& r,
                        const synth::SynthesisResult& ref, std::uint64_t seed) {
  synth::Checkpoint ck;
  ck.seed = seed;
  ck.buckets = r.checkpoints;
  ck.iterations = ref.iterations;
  std::vector<double> s;
  for (int i = 0; i < 5; ++i) {
    const double t0 = mono_s();
    if (auto st = synth::save_checkpoint(ck, work + "/probe.ckpt"); !st.is_ok()) {
      die("checkpoint: " + st.to_string());
    }
    s.push_back(mono_s() - t0);
  }
  return median(s);
}

struct DistProbe {
  double load_ms = 0, pass_s = 0, passes = 0, coordinator_s = 0;
  bool reconciled = true;
  api::JobResult result;
};

DistProbe probe_workers(const std::string& work, const std::string& bin,
                        const api::JobSpec& spec, const Replay& rp,
                        const synth::SynthesisResult& ref, SpanLog& log) {
  DistProbe p;
  std::vector<pid_t> pids;
  std::vector<dist::WorkerEndpoint> eps;
  for (int i = 0; i < 3; ++i) {
    const std::string pf = work + "/worker-" + std::to_string(i) + ".port";
    fs::remove(pf);
    const pid_t pid = ::fork();
    if (pid < 0) die("fork failed");
    if (pid == 0) {
      const int devnull = ::open("/dev/null", O_WRONLY);
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      const std::string exe = bin + "/abagnale_worker";
      ::execl(exe.c_str(), "abagnale_worker", "--port-file", pf.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    pids.push_back(pid);
    g_children.push_back(pid);
    long port = 0;
    for (int tries = 0; tries < 500 && port == 0; ++tries) {
      std::ifstream f(pf);
      f >> port;
      if (port == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (port == 0) die("worker never reported a port");
    eps.push_back({"127.0.0.1", static_cast<std::uint16_t>(port)});
  }
  auto rpc = [&](std::size_t wi, const std::string& method, const std::string& path,
                 const std::string& body) {
    auto r = dist::http_request(eps[wi].host, eps[wi].port, method, path, body, 60.0);
    if (!r.ok()) die("rpc " + path + ": " + r.status().to_string());
    return *r;
  };

  const int d_span = log.open("worker probe", "dist3", 0);
  const std::string spec_json = api::spec_to_json(spec);
  std::map<std::string, std::size_t> owner;
  std::vector<std::vector<std::string>> owned(eps.size());
  {
    std::size_t i = 0;
    for (const auto& b : synth::make_buckets(dsl::dsl_by_name(*spec.pipeline.dsl_override))) {
      owner[b.label] = i % eps.size();
      owned[i % eps.size()].push_back(b.label);
      ++i;
    }
  }
  std::vector<double> loads;
  for (std::size_t wi = 0; wi < eps.size(); ++wi) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("epoch");
    w.value(static_cast<std::uint64_t>(1));
    w.key("spec");
    w.raw(spec_json);
    w.key("buckets");
    w.begin_array();
    for (const auto& l : owned[wi]) w.value(l);
    w.end_array();
    w.end_object();
    const double t0 = mono_s();
    auto r = rpc(wi, "POST", "/shard/load", w.take());
    const double t1 = mono_s();
    log.add("POST /shard/load", "dist3", d_span, t0, t1);
    if (r.code != 200) die("load rejected: " + r.body);
    loads.push_back((t1 - t0) * 1e3);
  }
  p.load_ms = median(loads);

  std::uint64_t pass_id = 1;
  for (const auto& pass : rp.passes) {
    std::vector<std::vector<std::string>> mine(eps.size());
    for (const auto& l : pass.labels) mine[owner.at(l)].push_back(l);
    const double t0 = mono_s();
    std::vector<std::size_t> busy;
    for (std::size_t wi = 0; wi < eps.size(); ++wi) {
      if (mine[wi].empty()) continue;
      obs::JsonWriter w;
      w.begin_object();
      w.key("epoch");
      w.value(static_cast<std::uint64_t>(1));
      w.key("pass_id");
      w.value(pass_id++);
      w.key("target");
      w.value(static_cast<std::uint64_t>(pass.target));
      w.key("buckets");
      w.begin_array();
      for (const auto& l : mine[wi]) w.value(l);
      w.end_array();
      w.key("working");
      w.begin_array();
      for (std::size_t idx : pass.working) w.value(static_cast<std::uint64_t>(idx));
      w.end_array();
      w.end_object();
      auto r = rpc(wi, "POST", "/shard/iterate", w.take());
      if (r.code != 202) die("iterate rejected: " + r.body);
      busy.push_back(wi);
    }
    for (std::size_t wi : busy) {
      while (true) {
        auto r = rpc(wi, "GET", "/shard/status", "");
        auto doc = util::parse_json(r.body);
        if (!doc.ok()) die("malformed status");
        const auto* st = doc->find("state");
        if (st != nullptr && st->is_string() && st->as_string() == "done") {
          const auto* cks = doc->find("checkpoints");
          if (cks == nullptr || !cks->is_array()) die("status without checkpoints");
          for (const auto& item : cks->items()) {
            synth::BucketCheckpoint ck;
            if (!dist::bucket_checkpoint_from_json(item, &ck).is_ok()) die("bad checkpoint");
            if (pass.terminal) continue;  // reports predate the terminal phase
            for (const auto& br : ref.iterations[pass.report].buckets) {
              if (br.label == ck.label && (br.sketches_enumerated != ck.sketches ||
                                           br.handlers_scored != ck.handlers_scored)) {
                p.reconciled = false;
              }
            }
          }
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    const double t1 = mono_s();
    log.add("pass", "dist3", d_span, t0, t1);
    p.pass_s += t1 - t0;
    p.passes += 1;
  }

  // The whole job through the coordinator over the same three workers.
  dist::CoordinatorOptions copts;
  copts.workers = eps;
  dist::Coordinator coord(copts);
  const double c0 = mono_s();
  p.result = coord.run(spec);
  p.coordinator_s = mono_s() - c0;
  log.add("Coordinator::run", "dist3", d_span, c0, c0 + p.coordinator_s);
  log.close(d_span);

  for (std::size_t wi = 0; wi < eps.size(); ++wi) {
    (void)dist::http_request(eps[wi].host, eps[wi].port, "POST", "/shard/quit", "", 5.0);
  }
  for (pid_t pid : pids) {
    int status = 0;
    bool gone = false;
    for (int i = 0; i < 250 && !gone; ++i) {
      gone = ::waitpid(pid, &status, WNOHANG) == pid;
      if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!gone) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
  }
  g_children.clear();
  return p;
}

bool same_result(const api::JobResult& a, const api::JobResult& b) {
  if (a.found() != b.found() || a.exit_class() != b.exit_class()) return false;
  if (a.found() && (a.pipeline.handler_string() != b.pipeline.handler_string() ||
                    a.pipeline.distance() != b.pipeline.distance())) {
    return false;
  }
  if (a.convergence.size() != b.convergence.size()) return false;
  for (std::size_t i = 0; i < a.convergence.size(); ++i) {
    if (a.convergence[i].best_distance != b.convergence[i].best_distance) return false;
  }
  return true;
}

// Mean of a histogram's observations between two snapshots.
double histogram_mean_delta(const obs::Snapshot& before, const obs::Snapshot& after,
                            const std::string& name) {
  auto find = [&](const obs::Snapshot& s) -> const obs::Snapshot::HistogramData* {
    for (const auto& h : s.histograms) {
      if (h.name == name && h.labels.empty()) return &h;
    }
    return nullptr;
  };
  const auto* a = find(before);
  const auto* b = find(after);
  if (b == nullptr) return 0.0;
  const double n = static_cast<double>(b->count - (a ? a->count : 0));
  return n > 0 ? (b->sum - (a ? a->sum : 0.0)) / n : 0.0;
}

int cmd_traced(const Args& a) {
  const std::string workload = a.get("workload");
  const std::string work = a.get("work");
  const std::string bin = a.get("bin");
  const std::uint64_t seed = std::strtoull(a.get("seed").c_str(), nullptr, 10);
  SpanLog log;
  std::map<std::string, double> m;
  std::vector<std::string> failures;

  Timings t;
  Workload wl = prepare(workload, work, &t);
  m["net.collect_s"] = t.collect_s;
  m["trace.segment_s"] = t.segment_s;
  if (workload != "served" && workload != "dist3") write_served_inputs(work, nullptr);
  const api::JobSpec served = served_spec(work);
  {
    std::vector<double> s;
    for (int i = 0; i < 5; ++i) {
      const double t0 = mono_s();
      (void)load_or_die(served.trace_paths[0]);
      s.push_back(mono_s() - t0);
    }
    m["trace.load_csv_s"] = median(s);
  }

  // Untimed run of the workload's own jobs.
  const obs::Snapshot snap0 = obs::snapshot();
  auto engine = std::make_unique<api::Engine>(wl.engine);
  const double u0 = mono_s();
  auto runs = run_batch(*engine, wl.specs, true);
  const double untimed_wall = mono_s() - u0;
  const obs::Snapshot snap1 = obs::snapshot();
  m["cache.entries"] = static_cast<double>(engine->eval_cache().size());
  engine.reset();

  double hits = 0, misses = 0, untimed = 0;
  std::vector<double> start_delay;
  std::vector<double> iter_s(3, 0.0);
  for (const auto& r : runs) {
    const auto& res = r.handle.wait();
    hits += static_cast<double>(res.cache_hits);
    misses += static_cast<double>(res.cache_misses);
    untimed += (r.times->done_at - r.times->submit_at) - res.pipeline.synthesis.seconds;
    start_delay.push_back(r.times->running_at - r.times->submit_at);
    double prev = r.times->running_at;
    for (std::size_t i = 0; i < r.times->iteration_at.size() && i < 3; ++i) {
      iter_s[i] += r.times->iteration_at[i] - prev;
      prev = r.times->iteration_at[i];
    }
  }
  m["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["refine.untimed_s"] = untimed;
  m["refine.iter1_s"] = iter_s[0];
  m["refine.iter2_s"] = iter_s[1];
  m["refine.iter3_s"] = iter_s[2];
  m["api.start_delay_s"] = median(start_delay);
  m["pool.queue_wait_us"] = histogram_mean_delta(snap0, snap1, "pool.queue_wait_us");

  // Traced replay of every job, one after another.
  Replay total;
  std::vector<Replay> replays;
  const double r0 = mono_s();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& res = runs[i].handle.wait();
    const int j_span = log.open("job " + res.name, res.name, 0);
    replays.push_back(
        replay_job(inputs_of(wl.specs[i]), res.pipeline.synthesis, res.name, log, j_span));
    log.close(j_span);
    const Replay& rp = replays.back();
    total.build_s += rp.build_s;
    total.solve_s += rp.solve_s;
    total.score_s += rp.score_s;
    total.teardown_s += rp.teardown_s;
    total.critical_s += rp.critical_s;
    total.validation_s += rp.validation_s;
    total.handlers += rp.handlers;
    if (!rp.reconciled) failures.push_back("reconcile " + res.name + ": " + rp.mismatch);
  }
  const double replay_wall = mono_s() - r0;
  const obs::Snapshot snap2 = obs::snapshot();
  const auto delta = [&](const char* name) {
    return static_cast<double>(snap2.counter_value(name) - snap1.counter_value(name));
  };
  m["enum.build_s"] = total.build_s;
  m["enum.solve_s"] = total.solve_s;
  m["enum.teardown_s"] = total.teardown_s;
  m["enum.models"] = delta("synth.solver_models");
  m["enum.sketches"] = delta("synth.sketches_emitted");
  m["enum.yield"] = m["enum.models"] > 0 ? m["enum.sketches"] / m["enum.models"] : 0.0;
  m["enum.rss_mb_per_bucket"] = replays[0].rss_mb_per_bucket;
  m["score.pass_s"] = total.score_s;
  m["score.handlers"] = static_cast<double>(total.handlers);
  m["refine.critical_bucket_s"] = total.critical_s;
  m["refine.validation_s"] = total.validation_s;
  m["distance.dtw_cells"] = delta("distance.dtw_cells");
  m["distance.dtw_evals"] = delta("distance.dtw_evals");
  m["distance.prune_ratio"] =
      m["distance.dtw_evals"] > 0
          ? (delta("distance.lb_prunes") + delta("distance.lb_keogh_prunes") +
             delta("distance.early_abandons")) /
                m["distance.dtw_evals"]
          : 0.0;
  m["bench.trace_overhead_ratio"] = replay_wall / untimed_wall;

  // Replay and DTW on a fixed, seed-chosen sample of the first job's
  // candidates and segments.
  {
    const Replay& rp = replays[0];
    const JobInputs in = inputs_of(wl.specs[0]);
    util::Rng rng(seed);
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    std::vector<double> empty;
    std::vector<const std::vector<double>*> lanes(dsl::kBatchLanes, &empty);
    std::vector<std::vector<double>> out;
    std::size_t replays_done = 0;
    const double t0 = mono_s();
    for (int i = 0; i < 64; ++i) {
      const auto& c = rp.candidates[pick(rp.candidates.size())];
      const auto& seg = in.segments[pick(in.segments.size())];
      const dsl::Program prog = dsl::compile(*c.handler);
      synth::replay_batch(prog, lanes, seg, {}, &out);
      replays_done += lanes.size();
    }
    m["replay.us_per_handler"] = (mono_s() - t0) * 1e6 / static_cast<double>(replays_done);
    const auto dopts = synth::effective_distance_options(in.opts);
    const double t1 = mono_s();
    for (int i = 0; i < 64; ++i) {
      const auto& x = in.segments[pick(in.segments.size())];
      const auto& y = in.segments[pick(in.segments.size())];
      (void)distance::compute(distance::Metric::kDtw, synth::observed_series_pkts(x),
                              synth::observed_series_pkts(y), dopts);
    }
    m["dtw.us_per_eval"] = (mono_s() - t1) * 1e6 / 64.0;
  }

  // The served spec in process: the reference for the serve, checkpoint and
  // worker probes (reused when it is the workload's own job).
  double served_wall = 0.0;
  api::JobResult served_ref;
  Replay served_replay;
  if (workload == "served" || workload == "dist3") {
    served_ref = runs[0].handle.wait();
    served_wall = runs[0].times->done_at - runs[0].times->submit_at;
    served_replay = replays[0];
  } else {
    api::EngineOptions eo;
    eo.threads = kThreads;
    eo.max_concurrent_jobs = 1;
    api::Engine e(eo);
    auto one = run_batch(e, {served}, false);
    served_ref = one[0].handle.wait();
    served_wall = one[0].times->done_at - one[0].times->submit_at;
    served_replay = replay_job(inputs_of(served), served_ref.pipeline.synthesis, "served", log, 0);
  }

  const ServeProbe sp = probe_service(work, log);
  m["serve.submit_handler_ms"] = sp.submit_ms;
  m["serve.get_handler_ms"] = sp.get_ms;
  m["serve.http_rtt_ms"] = sp.http_rtt_ms;
  m["serve.wal_append_ms"] = probe_wal(work);
  m["checkpoint.save_s"] =
      probe_checkpoint(work, served_replay, served_ref.pipeline.synthesis,
                       served.pipeline.synth.seed);

  const DistProbe dp = probe_workers(work, bin, served, served_replay,
                                     served_ref.pipeline.synthesis, log);
  m["dist.load_ms"] = dp.load_ms;
  m["dist.pass_s"] = dp.pass_s;
  m["dist.passes"] = dp.passes;
  m["dist.overhead_s"] = dp.coordinator_s - served_wall;
  if (!dp.reconciled) failures.push_back("reconcile worker passes");
  if (!same_result(dp.result, served_ref)) failures.push_back("dist result differs from in-process");

  log.write(work + "/spans.json");

  obs::JsonWriter w;
  w.begin_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& [k, v] : m) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
  w.key("failures");
  w.begin_array();
  for (const auto& f : failures) w.value(f);
  w.end_array();
  w.key("jobs");
  w.begin_array();
  for (const auto& r : runs) write_job(w, r);
  w.end_array();
  w.key("served_results");
  w.begin_array();
  for (const auto& r : sp.results) w.raw(r);
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  return 0;
}

int cmd_env() {
  unsigned major = 0, minor = 0, build = 0, rev = 0;
  Z3_get_version(&major, &minor, &build, &rev);
  std::printf("{\"z3\":\"%u.%u.%u.%u\",\"dtw_kernel\":\"%s\"}\n", major, minor, build, rev,
              distance::simd_name(distance::resolve_simd()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kError);
  if (argc < 2) die("usage: abg_perfbench env|inputs|inproc|traced ...");
  const std::string cmd = argv[1];
  const Args a = parse_args(argc, argv, 2);
  if (cmd == "env") return cmd_env();
  if (cmd == "inputs") {
    if (a.positional.empty()) die("inputs WORK");
    Timings t;
    write_served_inputs(a.positional[0], &t);
    std::printf("{\"collect_s\":%.9g}\n", t.collect_s);
    return 0;
  }
  if (cmd == "inproc") return cmd_inproc(a);
  if (cmd == "traced") return cmd_traced(a);
  die("unknown command " + cmd);
}
