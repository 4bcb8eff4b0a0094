// Command-line front end for the whole library — the tool a measurement
// study would actually drive. Traces move through CSV files, so collection
// and synthesis can run on different machines (or synthesis can consume
// externally converted pcaps in the same format).
//
//   abagnale_cli list
//   abagnale_cli collect <cca> <out.csv> [bw_mbps rtt_ms dur_s loss xt_mbps]
//   abagnale_cli classify <trace.csv>...
//   abagnale_cli synthesize [--dsl <name>] [--timeout <s>] <trace.csv>...
//   abagnale_cli match <cca> <trace.csv>...   (score a known CCA's handler)
//   abagnale_cli --batch <manifest.json>      (batch sweep via api::Engine)
//
// Batch mode runs every job in the manifest through one api::Engine — one
// shared scoring pool and one shared eval cache — prints a per-job section
// with the job's status/exit class/cache traffic, and exits with the first
// failing job's exit class (0 when every job succeeded). With "report" set
// in the manifest, a consolidated JSON run report (per-job results plus the
// full metrics registry) is written there.
//
// Observability (synthesize/classify/match — may appear anywhere on the line):
//   --metrics-out <m.json>   write a JSON run report of every obs counter/
//                            gauge/histogram the run touched
//   --trace-out <t.json>     record Chrome trace-event spans (refinement
//                            iterations, per-bucket scoring, pool tasks);
//                            open the file in chrome://tracing or Perfetto
//   --status-port <n>        serve live status over HTTP on 127.0.0.1:<n>
//                            while the command runs: /metrics (Prometheus
//                            text), /jobs (batch job states), /journal
//                            (search-forensics summary), /healthz
//   --journal-out <f>        record the search-forensics journal (one binary
//                            event per candidate lifecycle step) to <f>;
//                            query it with abg_inspect. In batch mode the
//                            combined journal is additionally split into
//                            <f>.<job> per-job journals.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <fstream>
#include <limits>
#include <memory>
#include <mutex>

#include "api/engine.hpp"
#include "api/manifest.hpp"
#include "classify/classifier.hpp"
#include "core/abagnale.hpp"
#include "dsl/known_handlers.hpp"
#include "net/simulator.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/status_server.hpp"
#include "obs/trace_events.hpp"
#include "synth/replay.hpp"
#include "trace/trace_io.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/status.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace abg;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  abagnale_cli list\n"
               "  abagnale_cli collect <cca> <out.csv> [bw_mbps rtt_ms dur_s loss xt_mbps]\n"
               "  abagnale_cli classify <trace.csv>...\n"
               "  abagnale_cli synthesize [--dsl <name>] [--timeout <s>] [--no-fast-path]\n"
               "                [--checkpoint <state>] [--resume] <trace.csv>...\n"
               "  abagnale_cli match <cca> <trace.csv>...\n"
               "  abagnale_cli --batch <manifest.json>   (multi-job sweep, api::Engine)\n"
               "options (any subcommand, anywhere on the line):\n"
               "  --repair-traces         drop/clamp malformed trace rows instead of failing\n"
               "  --metrics-out <m.json>  JSON run report: counters/gauges/histograms\n"
               "  --trace-out <t.json>    Chrome trace-event spans (chrome://tracing, Perfetto)\n"
               "  --journal-out <f>       search-forensics journal (query with abg_inspect;\n"
               "                          batch mode also splits per-job <f>.<job> files)\n"
               "  --status-port <n>       live HTTP status on 127.0.0.1:<n> (0 = ephemeral):\n"
               "                          /metrics (Prometheus), /jobs (batch), /journal,\n"
               "                          /healthz\n"
               "exit codes: 0 ok, 1 unknown, 2 usage, 3 parse, 4 invalid-trace, 5 timeout,\n"
               "            6 cancelled, 7 io, 8 numeric, 9 invalid-argument\n");
  return 2;
}

// --repair-traces, extracted in main() alongside the obs flags.
trace::LoadOptions g_load_opts;
// Error class of the last trace that failed to load, so a run that loses all
// of its inputs exits with the cause (parse vs io vs invalid) rather than 1.
util::StatusCode g_load_error = util::StatusCode::kOk;

std::vector<trace::Trace> load_all(int argc, char** argv, int first) {
  std::vector<trace::Trace> traces;
  for (int i = first; i < argc; ++i) {
    auto t = trace::load_csv(argv[i], g_load_opts);
    if (!t.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", argv[i], t.status().to_string().c_str());
      g_load_error = t.status().code();
      continue;
    }
    std::printf("loaded %s: cca=%s, %zu samples\n", argv[i], t->cca_name.c_str(),
                t->samples.size());
    traces.push_back(std::move(*t));
  }
  return traces;
}

// The /jobs provider behind the status server. The route is registered once
// (before start()), but the Engine only exists while cmd_batch runs, so the
// route reads through this swappable provider: empty job list outside a
// batch, Engine::jobs_json() (lock-free) during one. The provider is invoked
// while g_jobs_mu is held: that makes ~JobsProviderScope block until any
// in-flight /jobs call drains, so the provider can never run against an
// Engine that cmd_batch has already destroyed. The call is a lock-free
// snapshot and the lock is only otherwise touched by the scope ctor/dtor,
// so holding it across the call is cheap.
std::mutex g_jobs_mu;
std::function<std::string()> g_jobs_provider;

std::string jobs_body() {
  std::lock_guard lk(g_jobs_mu);
  return g_jobs_provider ? g_jobs_provider() : std::string("{\"jobs\":[]}");
}

// Scoped installation, so the provider can never outlive the Engine it
// captures (cmd_batch has early returns between Engine construction and
// teardown).
struct JobsProviderScope {
  explicit JobsProviderScope(std::function<std::string()> fn) {
    std::lock_guard lk(g_jobs_mu);
    g_jobs_provider = std::move(fn);
  }
  ~JobsProviderScope() {
    std::lock_guard lk(g_jobs_mu);
    g_jobs_provider = nullptr;
  }
};

// Exit code when a subcommand got no usable traces.
int no_traces_rc() {
  return g_load_error == util::StatusCode::kOk ? 1 : util::exit_code(g_load_error);
}

bool parse_double_arg(const char* flag, const char* text, double* out) {
  if (util::parse_double(text, out)) return true;
  std::fprintf(stderr, "%s: bad number '%s'\n", flag, text);
  return false;
}

int cmd_list() {
  std::printf("CCAs:");
  for (const auto& n : cca::all_cca_names()) std::printf(" %s", n.c_str());
  std::printf("\nDSLs:");
  for (const auto& n : dsl::curated_dsl_names()) std::printf(" %s", n.c_str());
  std::printf("\n");
  return 0;
}

int cmd_collect(int argc, char** argv) {
  if (argc < 4) return usage();
  double bw_mbps = 10.0, rtt_ms = 50.0, dur_s = 30.0, loss = 0.0, xt_mbps = 0.0;
  if ((argc > 4 && !parse_double_arg("bw_mbps", argv[4], &bw_mbps)) ||
      (argc > 5 && !parse_double_arg("rtt_ms", argv[5], &rtt_ms)) ||
      (argc > 6 && !parse_double_arg("dur_s", argv[6], &dur_s)) ||
      (argc > 7 && !parse_double_arg("loss", argv[7], &loss)) ||
      (argc > 8 && !parse_double_arg("xt_mbps", argv[8], &xt_mbps))) {
    return usage();
  }
  trace::Environment env;
  env.bandwidth_bps = bw_mbps * 1e6;
  env.rtt_s = rtt_ms / 1e3;
  env.duration_s = dur_s;
  env.random_loss = loss;
  env.cross_traffic_bps = xt_mbps * 1e6;
  auto t = net::run_connection(argv[2], env);
  if (auto st = trace::save_csv(t, argv[3]); !st.is_ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.to_string().c_str());
    return util::exit_code(st.code());
  }
  std::printf("wrote %s (%zu samples)\n", argv[3], t.samples.size());
  return 0;
}

int cmd_classify(int argc, char** argv) {
  auto traces = load_all(argc, argv, 2);
  if (traces.empty()) return no_traces_rc();
  classify::Classifier classifier{classify::ClassifierOptions{}};
  auto result = classifier.classify(traces);
  std::printf("label: %s\n", result.label.c_str());
  std::printf("closest:");
  for (std::size_t i = 0; i < result.closest.size() && i < 3; ++i) {
    std::printf(" %s", result.closest[i].c_str());
  }
  std::printf("\nsuggested DSL: %s\n", core::dsl_for_classification(result).c_str());
  return 0;
}

int cmd_synthesize(int argc, char** argv) {
  // Flags become a JSON job object parsed by the one canonical codec
  // (api::spec_from_json) and run through api::Engine — the same dialect and
  // defaults as a --batch manifest entry, a POST /v1/jobs body, and the
  // distributed worker protocol, so a CLI flag and a manifest key can never
  // drift apart.
  obs::JsonWriter w;
  w.begin_object();
  bool resume = false;
  bool has_checkpoint = false;
  int first = 2;
  while (first < argc && argv[first][0] == '-') {
    if (std::strcmp(argv[first], "--no-fast-path") == 0) {
      // Reference configuration: score every candidate from scratch (no memo
      // cache, no early abandoning; candidates still replay in lane
      // batches). Results are identical either way — this exists to measure
      // the fast path, not to change behavior.
      w.key("fast_path");
      w.value(false);
      first += 1;
      continue;
    }
    if (std::strcmp(argv[first], "--resume") == 0) {
      w.key("resume");
      w.value(true);
      resume = true;
      first += 1;
      continue;
    }
    if (first + 1 >= argc) return usage();
    if (std::strcmp(argv[first], "--dsl") == 0) {
      w.key("dsl");
      w.value(std::string_view(argv[first + 1]));
    } else if (std::strcmp(argv[first], "--timeout") == 0) {
      double timeout_s = 0.0;
      if (!parse_double_arg("--timeout", argv[first + 1], &timeout_s)) return usage();
      w.key("timeout_s");
      w.value(timeout_s);
    } else if (std::strcmp(argv[first], "--checkpoint") == 0) {
      w.key("checkpoint");
      w.value(std::string_view(argv[first + 1]));
      has_checkpoint = true;
    } else {
      return usage();
    }
    first += 2;
  }
  if (resume && !has_checkpoint) {
    std::fprintf(stderr, "--resume needs --checkpoint <state>\n");
    return usage();
  }
  if (first >= argc) return usage();
  if (g_load_opts.repair) {
    w.key("repair_traces");
    w.value(true);
  }
  w.key("traces");
  w.begin_array();
  for (int i = first; i < argc; ++i) w.value(std::string_view(argv[i]));
  w.end_array();
  w.end_object();

  auto spec = api::spec_from_json(w.take());
  if (!spec.ok()) {
    std::fprintf(stderr, "bad job spec: %s\n", spec.status().to_string().c_str());
    return util::exit_code(spec.status().code());
  }
  if (!util::log_level_from_env()) util::set_log_level(util::LogLevel::kInfo);
  api::Engine engine({.max_concurrent_jobs = 1});
  auto handle = engine.submit(std::move(*spec));
  if (!handle.ok()) {
    std::fprintf(stderr, "synthesis failed: %s\n", handle.status().to_string().c_str());
    return util::exit_code(handle.status().code());
  }
  const api::JobResult& result = handle->wait();
  const util::Status& st = result.status;
  const bool partial = result.pipeline.synthesis.partial;
  if (!st.is_ok() && !partial) {
    // Hard failure (e.g. a corrupted checkpoint or unloadable trace), not an
    // interrupted search.
    std::fprintf(stderr, "synthesis failed: %s\n", st.to_string().c_str());
    return util::exit_code(st.code());
  }
  if (!result.found()) {
    std::printf("no handler found\n");
    return partial ? util::exit_code(st.code()) : 1;
  }
  std::printf("\nDSL: %s\nhandler: %s\ndistance: %.3f over %zu segments\n",
              result.pipeline.dsl_name.c_str(), result.pipeline.handler_string().c_str(),
              result.pipeline.distance(), result.segments_total);
  if (partial) {
    // Best-so-far from a preempted run: report it, but exit with the
    // interrupt class so batch drivers can tell it from a completed search.
    std::printf("partial result: %s\n", st.to_string().c_str());
    return util::exit_code(st.code());
  }
  return 0;
}

int cmd_match(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto& known = dsl::known_handlers(argv[2]);
  if (!known.fine_tuned) {
    std::fprintf(stderr, "no fine-tuned handler for %s\n", argv[2]);
    return 1;
  }
  auto traces = load_all(argc, argv, 3);
  if (traces.empty()) return no_traces_rc();
  std::vector<trace::Trace> steady;
  for (const auto& t : traces) steady.push_back(trace::trim_warmup(t, 2.0));
  auto segs = trace::segment_all(steady, 20);
  const double d =
      synth::total_distance(*known.fine_tuned, segs, distance::Metric::kDtw);
  std::printf("handler: %s\nDTW distance over %zu segments: %.3f\n",
              dsl::to_string(*known.fine_tuned).c_str(), segs.size(), d);
  return 0;
}

// --- batch mode (api::Engine over a JSON manifest) ---------------------------

void print_job_section(const api::JobResult& r, std::size_t index, std::size_t total) {
  std::printf("\n=== job %s (%zu/%zu) ===\n", r.name.c_str(), index + 1, total);
  std::printf("status: %s (exit class %d)\n",
              r.ok() ? "ok" : r.status.to_string().c_str(), r.exit_class());
  if (r.kind == api::JobSpec::Kind::kMister880) {
    if (r.found()) {
      std::printf("handler: %s\n", dsl::to_string(*r.mister880.handler).c_str());
    } else {
      std::printf("no exact-match handler\n");
    }
    std::printf("sketches: %zu, handlers tried: %zu, segments: %zu\n",
                r.mister880.sketches_tried, r.mister880.handlers_tried, r.segments_total);
  } else if (r.found()) {
    std::printf("DSL: %s\nhandler: %s\ndistance: %.3f over %zu segments\n",
                r.pipeline.dsl_name.c_str(), r.pipeline.handler_string().c_str(),
                r.pipeline.distance(), r.segments_total);
  } else {
    std::printf("no handler found\n");
  }
  std::printf("cache: %llu hits / %llu misses; %.2fs\n",
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.cache_misses), r.seconds);
}

// Consolidated run report: per-job results plus one snapshot of the global
// metrics registry (per-job metrics sections live in "jobs"; the registry is
// process-wide by design).
bool write_batch_report(const std::string& path, const api::Engine& engine,
                        const std::vector<const api::JobResult*>& results,
                        double total_seconds) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("engine");
  w.begin_object();
  w.key("threads");
  w.value(static_cast<std::uint64_t>(engine.options().threads));
  w.key("max_concurrent_jobs");
  w.value(static_cast<std::uint64_t>(engine.options().max_concurrent_jobs));
  w.key("share_eval_cache");
  w.value(engine.options().share_eval_cache);
  w.end_object();
  w.key("total_seconds");
  w.value(total_seconds);
  std::uint64_t ok = 0;
  for (const auto* r : results) ok += r->ok() ? 1 : 0;
  w.key("jobs_ok");
  w.value(ok);
  w.key("jobs_failed");
  w.value(static_cast<std::uint64_t>(results.size()) - ok);
  w.key("jobs");
  w.begin_array();
  for (const auto* r : results) {
    w.begin_object();
    w.key("name");
    w.value(r->name);
    api::job_result_to_json(w, *r);
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  w.raw(obs::metrics_json());
  w.end_object();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << w.str() << '\n';
  return out.good();
}

int cmd_batch(const char* manifest_path) {
  auto manifest = api::load_manifest(manifest_path);
  if (!manifest.ok()) {
    std::fprintf(stderr, "bad manifest: %s\n", manifest.status().to_string().c_str());
    return util::exit_code(manifest.status().code());
  }
  const std::size_t total = manifest->jobs.size();

  // Stable names up front (submit would auto-name later, but the progress
  // stream needs labels before the first iteration lands) and a shared
  // stdout lock so concurrent jobs' progress lines interleave whole.
  auto io_mu = std::make_shared<std::mutex>();
  for (std::size_t i = 0; i < total; ++i) {
    auto& spec = manifest->jobs[i];
    if (spec.name.empty()) spec.name = "job-" + std::to_string(i + 1);
    if (!spec.load.repair) spec.load.repair = g_load_opts.repair;
    spec.with_iteration_callback(
        [io_mu, name = spec.name](const synth::IterationReport& it) {
          std::lock_guard lk(*io_mu);
          const double best =
              it.buckets.empty() ? std::numeric_limits<double>::infinity() : it.buckets.front().score;
          std::printf("[%s] iteration: N=%d, %zu segments, best=%.3f (%.2fs)\n", name.c_str(),
                      it.n_target, it.segments_used, best, it.seconds);
        });
  }

  util::Stopwatch clock;
  api::Engine engine(manifest->engine);
  JobsProviderScope jobs_provider([&engine] { return engine.jobs_json(); });
  std::printf("batch: %zu jobs on %zu threads (%zu concurrent, cache %s)\n", total,
              engine.options().threads, engine.options().max_concurrent_jobs,
              engine.options().share_eval_cache ? "shared" : "per-job");
  auto handles = engine.submit_all(std::move(manifest->jobs));
  if (!handles.ok()) {
    std::fprintf(stderr, "batch rejected: %s\n", handles.status().to_string().c_str());
    return util::exit_code(handles.status().code());
  }

  int rc = 0;
  std::vector<const api::JobResult*> results;
  results.reserve(total);
  for (std::size_t i = 0; i < handles->size(); ++i) {
    const api::JobResult& r = (*handles)[i].wait();
    {
      std::lock_guard lk(*io_mu);
      print_job_section(r, i, total);
    }
    results.push_back(&r);
    if (rc == 0 && !r.ok()) rc = r.exit_class();
  }
  const double total_seconds = clock.elapsed_seconds();
  std::printf("\nbatch done: %zu jobs in %.2fs (exit %d)\n", total, total_seconds, rc);

  if (!manifest->report_path.empty()) {
    if (write_batch_report(manifest->report_path, engine, results, total_seconds)) {
      std::printf("batch report: %s\n", manifest->report_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write batch report %s\n", manifest->report_path.c_str());
      if (rc == 0) rc = util::exit_code(util::StatusCode::kIoError);
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);

  // Extract the observability flags first so every subcommand's own argv
  // parsing sees the command line it always did.
  std::string metrics_out, trace_out, journal_out;
  int status_port = -1;  // -1 = no status server
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--journal-out") == 0 && i + 1 < argc) {
      journal_out = argv[++i];
    } else if (std::strcmp(argv[i], "--status-port") == 0 && i + 1 < argc) {
      double port = 0;
      if (!parse_double_arg("--status-port", argv[++i], &port) || port < 0 || port > 65535) {
        return usage();
      }
      status_port = static_cast<int>(port);
    } else if (std::strcmp(argv[i], "--repair-traces") == 0) {
      g_load_opts.repair = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  const int nargs = static_cast<int>(args.size());
  if (nargs < 2) return usage();
  if (!trace_out.empty()) obs::set_tracing_enabled(true);
  if (!journal_out.empty()) {
    std::string err;
    if (!obs::journal_start(obs::JournalOptions{journal_out}, &err)) {
      std::fprintf(stderr, "journal: %s\n", err.c_str());
      return util::exit_code(util::StatusCode::kIoError);
    }
  }

  // The status server lives for the whole command; its /jobs route reads
  // through the swappable provider that batch mode installs.
  std::unique_ptr<obs::StatusServer> server;
  if (status_port >= 0) {
    server = std::make_unique<obs::StatusServer>();
    server->handle("/jobs", "application/json", jobs_body);
    server->handle("/journal", "application/json", [] { return obs::journal_summary_json(); });
    std::string err;
    if (!server->start(static_cast<std::uint16_t>(status_port), &err)) {
      std::fprintf(stderr, "status server: %s\n", err.c_str());
      return util::exit_code(util::StatusCode::kIoError);
    }
    std::printf("status: http://127.0.0.1:%u (/metrics /jobs /healthz)\n",
                static_cast<unsigned>(server->port()));
  }

  const std::string cmd = args[1];
  int rc = 2;
  if (cmd == "--batch") {
    if (nargs < 3) return usage();
    rc = cmd_batch(args[2]);
  } else if (cmd == "list") rc = cmd_list();
  else if (cmd == "collect") rc = cmd_collect(nargs, args.data());
  else if (cmd == "classify") rc = cmd_classify(nargs, args.data());
  else if (cmd == "synthesize") rc = cmd_synthesize(nargs, args.data());
  else if (cmd == "match") rc = cmd_match(nargs, args.data());
  else return usage();

  if (!metrics_out.empty()) {
    if (obs::write_metrics_json(metrics_out)) {
      std::printf("metrics report: %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics report %s\n", metrics_out.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!trace_out.empty()) {
    if (obs::write_trace_json(trace_out)) {
      std::printf("trace events: %s (%zu events; open in chrome://tracing or Perfetto)\n",
                  trace_out.c_str(), obs::trace_event_count());
    } else {
      std::fprintf(stderr, "failed to write trace file %s\n", trace_out.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!journal_out.empty()) {
    // Every producer is quiescent here: the subcommand has returned and the
    // engine/pool are destroyed, so the final drain is complete.
    const obs::JournalStats js = obs::journal_stop();
    std::printf("journal: %s (%llu events, %llu dropped; query with abg_inspect)\n",
                journal_out.c_str(), static_cast<unsigned long long>(js.recorded),
                static_cast<unsigned long long>(js.dropped));
    if (cmd == "--batch") {
      std::string err;
      const auto parts = obs::split_journal_by_job(journal_out, &err);
      for (const auto& p : parts) std::printf("journal: %s\n", p.c_str());
      if (!err.empty()) {
        std::fprintf(stderr, "journal split failed: %s\n", err.c_str());
        if (rc == 0) rc = 1;
      }
    }
  }
  return rc;
}
