// abagnale_worker: one shard of a distributed refinement search (ISSUE 9).
//
//   abagnale_worker [--port P] [--port-file FILE] [--metrics-out FILE]
//
// Serves the /v1/shard/* worker protocol (see src/dist/worker.hpp) plus
// /v1/healthz and /v1/metrics on 127.0.0.1:PORT (default: an ephemeral
// port); the unversioned spellings are deprecated aliases.
// With --port-file the actually-bound port is written there once listening,
// so a spawner (abagnale_serve --workers N) can discover it race-free.
//
// The process exits on POST /v1/shard/quit or SIGTERM/SIGINT; a worker holds
// no durable state (the coordinator owns checkpoints), so any exit path —
// including kill -9, which the dist-smoke CI job inflicts on purpose — only
// costs the in-flight pass, which the coordinator replays elsewhere.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "api/version.hpp"
#include "dist/worker.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/status_server.hpp"
#include "util/durable_io.hpp"
#include "util/log.hpp"
#include "util/status.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--port P] [--port-file FILE] [--metrics-out FILE]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace abg;

  int port = 0;  // ephemeral by default; workers are normally spawned, not addressed
  std::string port_file;
  std::string metrics_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = std::atoi(next("--port"));
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--metrics-out") {
      metrics_out = next("--metrics-out");
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (!util::log_level_from_env()) util::set_log_level(util::LogLevel::kInfo);
  obs::set_report_meta("api_version", ABG_API_VERSION);
  // Pre-create the series the dist-smoke CI gate reads, so a worker that
  // never adopted anything still exports them at 0.
  obs::counter("dist.worker.passes");
  obs::counter("dist.worker.buckets_adopted");

  dist::Worker worker;
  obs::StatusServer server;
  worker.mount(server);
  std::string err;
  if (!server.start(static_cast<std::uint16_t>(port), &err)) {
    std::fprintf(stderr, "abagnale_worker: cannot listen: %s\n", err.c_str());
    return util::exit_code(util::StatusCode::kIoError);
  }
  if (!port_file.empty()) {
    if (auto st = util::atomic_write_file(port_file, std::to_string(server.port()) + "\n",
                                          /*durable=*/false);
        !st.is_ok()) {
      std::fprintf(stderr, "abagnale_worker: cannot write %s: %s\n", port_file.c_str(),
                   st.to_string().c_str());
      return util::exit_code(st.code());
    }
  }
  std::printf("abagnale_worker: listening on 127.0.0.1:%u (pid %d)\n", server.port(),
              static_cast<int>(::getpid()));
  std::fflush(stdout);

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  while (g_stop == 0 && !worker.quit_requested()) {
    ::usleep(50 * 1000);
  }

  server.stop();
  if (!metrics_out.empty() && !obs::write_metrics_json(metrics_out)) {
    std::fprintf(stderr, "abagnale_worker: cannot write %s\n", metrics_out.c_str());
    return util::exit_code(util::StatusCode::kIoError);
  }
  std::printf("abagnale_worker: bye\n");
  return 0;
}
