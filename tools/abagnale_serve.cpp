// abagnale_serve: the crash-durable synthesis daemon (ISSUE 8).
//
//   abagnale_serve --state-dir DIR [--port P] [--threads N]
//                  [--max-concurrent-jobs J] [--queue-depth Q]
//                  [--rate R] [--burst B] [--max-job-timeout-s S]
//                  [--metrics-out FILE] [--workers N | HOST:PORT,...]
//
// --workers turns on distributed refinement search (ISSUE 9): pipeline jobs
// over trace paths run through a dist::Coordinator that shards buckets
// across abagnale_worker processes — `--workers 4` spawns four on ephemeral
// ports, `--workers 7001,7002` attaches to externally managed ones. Worker
// death mid-job is survived by shard reassignment; everything else about
// job durability below is unchanged.
//
// Serves the job API (POST /jobs, GET /jobs[/<id>[/result]], DELETE
// /jobs/<id>) plus /healthz and /metrics on 127.0.0.1:PORT. All job state
// lives under --state-dir as an fsync'd WAL plus per-job spec / result /
// checkpoint files; restarting with the same --state-dir recovers every
// non-terminal job and resumes running ones from their last checkpoint —
// including after kill -9.
//
// SIGTERM/SIGINT trigger a graceful drain: admissions close, queued and
// running jobs are parked as "suspended" (running ones keep their
// checkpoints), the WAL is flushed, and the process exits 0. A second
// signal exits immediately (the WAL is fsync'd per record, so even that is
// only as bad as kill -9).
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/version.hpp"
#include "dist/coordinator.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/status_server.hpp"
#include "serve/service.hpp"
#include "util/log.hpp"
#include "util/status.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char b = 0;
  // Async-signal-safe wake of the main loop; errors are unactionable here.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &b, 1);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --state-dir DIR [--port P] [--threads N]\n"
               "          [--max-concurrent-jobs J] [--queue-depth Q]\n"
               "          [--rate SUBMITS_PER_S] [--burst B]\n"
               "          [--max-job-timeout-s S] [--metrics-out FILE]\n"
               "          [--workers N | HOST:PORT,HOST:PORT,...]\n",
               argv0);
  return 2;
}

// "abagnale_worker" next to this binary; bare name (PATH lookup via execvp)
// when argv[0] has no directory component.
std::string worker_binary(const char* argv0) {
  const std::string self(argv0);
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "abagnale_worker";
  return self.substr(0, slash + 1) + "abagnale_worker";
}

// Spawn `n` abagnale_worker children on ephemeral ports, discovering the
// bound port of each through --port-file (written atomically once the worker
// listens, so there is no race). Port files and per-worker metrics land in
// the state dir: worker-<i>.port / worker-<i>.metrics.json.
bool spawn_workers(const char* argv0, int n, const std::string& state_dir,
                   std::vector<pid_t>* pids,
                   std::vector<abg::dist::WorkerEndpoint>* endpoints) {
  const std::string binary = worker_binary(argv0);
  std::vector<std::string> port_files;
  for (int i = 0; i < n; ++i) {
    const std::string stem = state_dir + "/worker-" + std::to_string(i);
    const std::string port_file = stem + ".port";
    ::unlink(port_file.c_str());
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "abagnale_serve: fork: %s\n", std::strerror(errno));
      return false;
    }
    if (pid == 0) {
      const std::string metrics = stem + ".metrics.json";
      ::execlp(binary.c_str(), "abagnale_worker", "--port-file", port_file.c_str(),
               "--metrics-out", metrics.c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "abagnale_serve: exec %s: %s\n", binary.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    pids->push_back(pid);
    port_files.push_back(port_file);
  }
  // Each worker listens within a few milliseconds, so poll its port file
  // with a backoff from 0.25 ms up to 20 ms. One 10 s deadline for the whole
  // fleet covers a loaded CI box.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int i = 0; i < n; ++i) {
    std::string content;
    for (useconds_t wait_us = 250;; wait_us = std::min<useconds_t>(2 * wait_us, 20'000)) {
      FILE* f = std::fopen(port_files[i].c_str(), "r");
      if (f != nullptr) {
        char buf[32] = {0};
        const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
        std::fclose(f);
        if (got > 0) {
          content.assign(buf, got);
          break;
        }
      }
      // A worker that exec-failed or died never writes its port file.
      int status = 0;
      if (::waitpid((*pids)[i], &status, WNOHANG) == (*pids)[i]) {
        std::fprintf(stderr, "abagnale_serve: worker %d exited before listening\n", i);
        (*pids)[i] = -1;
        return false;
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      ::usleep(wait_us);
    }
    const long port = content.empty() ? 0 : std::strtol(content.c_str(), nullptr, 10);
    if (port <= 0 || port > 65535) {
      std::fprintf(stderr, "abagnale_serve: worker %d never reported a port\n", i);
      return false;
    }
    endpoints->push_back({"127.0.0.1", static_cast<std::uint16_t>(port)});
  }
  return true;
}

void stop_workers(std::vector<pid_t>& pids) {
  for (const pid_t pid : pids) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  for (const pid_t pid : pids) {
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
  pids.clear();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace abg;

  std::string state_dir;
  std::string metrics_out;
  std::string workers_arg;
  int port = 8378;
  serve::ServiceOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--state-dir") {
      state_dir = next("--state-dir");
    } else if (arg == "--port") {
      port = std::atoi(next("--port"));
    } else if (arg == "--threads") {
      opts.engine.threads = static_cast<std::size_t>(std::atoi(next("--threads")));
    } else if (arg == "--max-concurrent-jobs") {
      opts.engine.max_concurrent_jobs =
          static_cast<std::size_t>(std::atoi(next("--max-concurrent-jobs")));
    } else if (arg == "--queue-depth") {
      opts.queue_depth = static_cast<std::size_t>(std::atoi(next("--queue-depth")));
    } else if (arg == "--rate") {
      opts.admission.rate_per_s = std::atof(next("--rate"));
    } else if (arg == "--burst") {
      opts.admission.burst = std::atof(next("--burst"));
    } else if (arg == "--max-job-timeout-s") {
      opts.max_job_timeout_s = std::atof(next("--max-job-timeout-s"));
    } else if (arg == "--metrics-out") {
      metrics_out = next("--metrics-out");
    } else if (arg == "--workers") {
      workers_arg = next("--workers");
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (state_dir.empty()) return usage(argv[0]);
  opts.state_dir = state_dir;

  // A daemon should narrate itself unless the operator said otherwise.
  if (!util::log_level_from_env()) util::set_log_level(util::LogLevel::kInfo);
  obs::set_report_meta("api_version", ABG_API_VERSION);

  // Eagerly create the counters the CI recovery gate asserts on, so a
  // metrics snapshot always carries them (at 0) even when nothing fired.
  obs::counter("obs.journal_dropped");
  obs::counter("serve.jobs_recovered");

  // --workers: an all-digit value spawns that many abagnale_worker children
  // on ephemeral ports (port-file discovery); anything else is an attach
  // list, "host:port,host:port,..." — the form the dist-smoke CI job uses so
  // it can kill -9 a specific worker pid it started itself.
  std::vector<pid_t> worker_pids;
  if (!workers_arg.empty()) {
    obs::counter("dist.shards_reassigned");
    obs::counter("dist.workers_lost");
    const bool all_digits = workers_arg.find_first_not_of("0123456789") == std::string::npos;
    if (all_digits) {
      const int n = std::atoi(workers_arg.c_str());
      if (n < 1 || n > 64) {
        std::fprintf(stderr, "abagnale_serve: --workers count must be 1..64\n");
        return 2;
      }
      // The port files need the state dir before Service::start creates it.
      if (::mkdir(state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "abagnale_serve: mkdir %s: %s\n", state_dir.c_str(),
                     std::strerror(errno));
        return util::exit_code(util::StatusCode::kIoError);
      }
      if (!spawn_workers(argv[0], n, state_dir, &worker_pids, &opts.dist.workers)) {
        stop_workers(worker_pids);
        return util::exit_code(util::StatusCode::kIoError);
      }
    } else {
      auto eps = dist::parse_worker_endpoints(workers_arg);
      if (!eps.ok()) {
        std::fprintf(stderr, "abagnale_serve: --workers: %s\n",
                     eps.status().to_string().c_str());
        return 2;
      }
      opts.dist.workers = std::move(*eps);
    }
  }

  serve::Service service(opts);
  if (auto st = service.start(); !st.is_ok()) {
    std::fprintf(stderr, "abagnale_serve: %s\n", st.to_string().c_str());
    stop_workers(worker_pids);
    return util::exit_code(st.code());
  }

  obs::StatusServer server;
  service.mount(server);
  std::string err;
  if (!server.start(static_cast<std::uint16_t>(port), &err)) {
    std::fprintf(stderr, "abagnale_serve: cannot listen: %s\n", err.c_str());
    service.drain_and_stop();
    stop_workers(worker_pids);
    return util::exit_code(util::StatusCode::kIoError);
  }
  std::printf("abagnale_serve: listening on 127.0.0.1:%u, state dir %s (%llu job%s recovered)\n",
              server.port(), state_dir.c_str(),
              static_cast<unsigned long long>(service.jobs_recovered()),
              service.jobs_recovered() == 1 ? "" : "s");
  if (!opts.dist.workers.empty()) {
    std::printf("abagnale_serve: distributed dispatch over %zu worker%s (%s)\n",
                opts.dist.workers.size(), opts.dist.workers.size() == 1 ? "" : "s",
                worker_pids.empty() ? "attached" : "spawned");
  }
  std::fflush(stdout);

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "abagnale_serve: pipe: %s\n", std::strerror(errno));
    return util::exit_code(util::StatusCode::kIoError);
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  // Park until the first signal.
  for (;;) {
    pollfd p{g_signal_pipe[0], POLLIN, 0};
    const int pr = ::poll(&p, 1, -1);
    if (pr > 0 && (p.revents & POLLIN)) break;
    if (pr < 0 && errno != EINTR) break;
  }

  std::printf("abagnale_serve: signal received, draining\n");
  std::fflush(stdout);
  server.stop();  // stop answering before parking jobs
  service.drain_and_stop();
  stop_workers(worker_pids);  // SIGTERM + reap; workers hold no durable state
  if (!metrics_out.empty() && !obs::write_metrics_json(metrics_out)) {
    std::fprintf(stderr, "abagnale_serve: cannot write %s\n", metrics_out.c_str());
    return util::exit_code(util::StatusCode::kIoError);
  }
  std::printf("abagnale_serve: drained, bye\n");
  return 0;
}
