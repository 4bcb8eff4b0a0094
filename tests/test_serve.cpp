// Chaos/robustness suite for the crash-durable synthesis service (ISSUE 8):
// WAL torn-write and corrupted-record recovery, injected I/O faults during
// enqueue surfacing as clean kIoError with the queue intact, token-bucket
// admission under a deterministic clock, the HTTP job API end to end over
// loopback, and the kill-9 golden test — a job interrupted by a simulated
// crash and recovered on a second Service over the same state dir must
// produce a bit-identical result (same handler, same distance) to an
// uninterrupted run.
//
// Lives in its own executable (abg_tests_serve): it runs real (small)
// synthesis jobs, so it is slower than the fast suite.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/manifest.hpp"
#include "dist/worker.hpp"
#include "net/simulator.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "serve/admission.hpp"
#include "serve/job_store.hpp"
#include "serve/service.hpp"
#include "serve/wal.hpp"
#include "trace/trace_io.hpp"
#include "util/fault_injection.hpp"
#include "util/json_parse.hpp"
#include "util/status.hpp"

namespace abg::serve {
namespace {

using util::StatusCode;

struct FaultGuard {
  explicit FaultGuard(const util::fault::Config& cfg) { util::fault::set_config(cfg); }
  ~FaultGuard() { util::fault::set_config({}); }
};

std::string fresh_dir(const char* tag) {
  std::string tmpl = testing::TempDir() + "abg_serve_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = ::mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir ? std::string(dir) : std::string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

// Shared quick-synthesis fixture: a reno trace on disk plus the spec JSON
// that reverse-engineers it with small budgets. Everything is seeded, so two
// runs of this spec are deterministic.
const std::string& reno_csv() {
  static const std::string path = [] {
    trace::Environment env;
    env.bandwidth_bps = 10e6;
    env.rtt_s = 0.04;
    env.duration_s = 10.0;
    env.seed = 21;
    auto t = net::run_connection("reno", env);
    // Test processes run in parallel and share the temp dir: write privately,
    // then rename into place, so no reader ever sees a half-written file.
    const std::string p = testing::TempDir() + "abg_serve_reno.csv";
    const std::string tmp = p + "." + std::to_string(::getpid());
    EXPECT_TRUE(trace::save_csv(t, tmp).is_ok());
    EXPECT_EQ(std::rename(tmp.c_str(), p.c_str()), 0);
    return p;
  }();
  return path;
}

std::string quick_spec_json() {
  return std::string("{\"traces\":[\"") + reno_csv() +
         "\"],\"dsl\":\"reno\",\"seed\":5,\"max_iterations\":3,"
         "\"initial_samples\":6,\"concretize_budget\":12,\"max_depth\":3,"
         "\"max_nodes\":5,\"max_holes\":2,\"timeout_s\":60}";
}

ServiceOptions quick_service_opts(const std::string& state_dir) {
  ServiceOptions o;
  o.state_dir = state_dir;
  o.engine.threads = 2;
  o.engine.max_concurrent_jobs = 1;
  o.queue_depth = 8;
  o.admission.rate_per_s = 1000.0;  // tests that want throttling override this
  o.admission.burst = 1000.0;
  return o;
}

bool wait_for(const std::function<bool()>& pred, double timeout_s = 120.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return true;
}

bool wait_terminal(Service& s, const std::string& id, JobRecord* out,
                   double timeout_s = 120.0) {
  const bool ok = wait_for(
      [&] {
        JobRecord rec;
        return s.store().lookup(id, &rec) && job_phase_terminal(rec.phase);
      },
      timeout_s);
  if (ok) s.store().lookup(id, out);
  return ok;
}

// --- minimal loopback HTTP client (mirrors test_status.cpp) -----------------

std::string http_request(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_post(std::uint16_t port, const std::string& path,
                      const std::string& body, const std::string& extra = "") {
  return http_request(port, "POST " + path + " HTTP/1.1\r\nHost: x\r\n" + extra +
                                "Content-Length: " + std::to_string(body.size()) +
                                "\r\n\r\n" + body);
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t p = response.find("\r\n\r\n");
  return p == std::string::npos ? std::string() : response.substr(p + 4);
}

// Pull a top-level field out of a JSON response body.
std::string json_field(const std::string& body, const std::string& key) {
  auto doc = util::parse_json(body);
  if (!doc.ok() || !doc->is_object()) return {};
  const auto* v = doc->find(key);
  if (!v) return {};
  return v->is_string() ? v->as_string() : std::string();
}

// --- WAL ---------------------------------------------------------------------

TEST(Wal, RoundTripsRecordsAcrossReopen) {
  const std::string dir = fresh_dir("wal");
  const std::string path = dir + "/wal.log";
  {
    Wal w;
    std::vector<std::string> records;
    ASSERT_TRUE(w.open(path, &records).is_ok());
    EXPECT_TRUE(records.empty());
    ASSERT_TRUE(w.append("submit\tj-1\talice").is_ok());
    ASSERT_TRUE(w.append("running\tj-1").is_ok());
    ASSERT_TRUE(w.append("progress\tj-1\t2", /*durable=*/false).is_ok());
  }
  Wal w;
  std::vector<std::string> records;
  ASSERT_TRUE(w.open(path, &records).is_ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "submit\tj-1\talice");
  EXPECT_EQ(records[2], "progress\tj-1\t2");
}

TEST(Wal, TornTailIsDroppedAndTruncatedOnOpen) {
  const std::string dir = fresh_dir("torn");
  const std::string path = dir + "/wal.log";
  {
    Wal w;
    std::vector<std::string> records;
    ASSERT_TRUE(w.open(path, &records).is_ok());
    ASSERT_TRUE(w.append("submit\tj-1\ta").is_ok());
    ASSERT_TRUE(w.append("done\tj-1").is_ok());
  }
  const std::string intact = read_file(path);
  // A torn final append: half a record, no newline.
  append_raw(path, "0123456789abcdef submit\tj-2");

  Wal w;
  std::vector<std::string> records;
  ASSERT_TRUE(w.open(path, &records).is_ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], "done\tj-1");
  // The tail was physically truncated, so appends continue cleanly.
  EXPECT_EQ(read_file(path), intact);
  ASSERT_TRUE(w.append("submit\tj-3\tb").is_ok());
  w.close();
  std::size_t torn = 99;
  auto replayed = Wal::replay_file(path, &torn);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->size(), 3u);
  EXPECT_EQ(torn, 0u);
}

TEST(Wal, ReplayStopsAtCorruptedRecord) {
  const std::string dir = fresh_dir("corrupt");
  const std::string path = dir + "/wal.log";
  {
    Wal w;
    std::vector<std::string> records;
    ASSERT_TRUE(w.open(path, &records).is_ok());
    ASSERT_TRUE(w.append("submit\tj-1\ta").is_ok());
    ASSERT_TRUE(w.append("running\tj-1").is_ok());
    ASSERT_TRUE(w.append("done\tj-1").is_ok());
  }
  // Flip a byte inside the second record's payload: its checksum no longer
  // matches, so replay must stop there — keeping record 1, dropping 2 and 3
  // (a matching-prefix guarantee, not record skipping).
  std::string content = read_file(path);
  const std::size_t second = content.find("running");
  ASSERT_NE(second, std::string::npos);
  content[second] = 'X';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  std::size_t torn = 0;
  auto replayed = Wal::replay_file(path, &torn);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->size(), 1u);
  EXPECT_EQ((*replayed)[0], "submit\tj-1\ta");
  EXPECT_GT(torn, 0u);
}

TEST(Wal, RejectsMultilinePayloadsAndClosedAppends) {
  const std::string dir = fresh_dir("invalid");
  Wal w;
  std::vector<std::string> records;
  ASSERT_TRUE(w.open(dir + "/wal.log", &records).is_ok());
  EXPECT_EQ(w.append("two\nlines").code(), StatusCode::kInvalidArgument);
  w.close();
  EXPECT_EQ(w.append("after close").code(), StatusCode::kIoError);
}

// --- JobStore ----------------------------------------------------------------

TEST(JobStore, LifecyclePersistsAcrossReopenAndCompacts) {
  const std::string dir = fresh_dir("store");
  {
    JobStore store;
    ASSERT_TRUE(store.open(dir).is_ok());
    ASSERT_TRUE(store.record_submit("j-1", "alice", "{\"traces\":[\"a.csv\"]}").is_ok());
    ASSERT_TRUE(store.record_running("j-1").is_ok());
    ASSERT_TRUE(store.record_progress("j-1", 1).is_ok());
    ASSERT_TRUE(store.record_progress("j-1", 2).is_ok());
    ASSERT_TRUE(store.record_submit("j-2", "bob", "{\"traces\":[\"b.csv\"]}").is_ok());
    ASSERT_TRUE(
        store.record_terminal("j-1", JobPhase::kDone, "", "{\"found\":true}").is_ok());
    // Spec and result files were written durably before their records.
    EXPECT_EQ(read_file(store.spec_path("j-1")), "{\"traces\":[\"a.csv\"]}");
    EXPECT_EQ(read_file(store.result_path("j-1")), "{\"found\":true}");
    // Double-terminal is a transition error, not a silent overwrite.
    EXPECT_EQ(store.record_terminal("j-1", JobPhase::kFailed, "x", "").code(),
              StatusCode::kInvalidArgument);
    store.close();
  }
  JobStore store;
  ASSERT_TRUE(store.open(dir).is_ok());
  const auto recs = store.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].id, "j-1");
  EXPECT_EQ(recs[0].client, "alice");
  EXPECT_EQ(recs[0].phase, JobPhase::kDone);
  EXPECT_EQ(recs[1].id, "j-2");
  EXPECT_EQ(recs[1].phase, JobPhase::kQueued);
  EXPECT_EQ(store.next_job_number(), 3u);

  // open() compacted: the terminal job's progress chain collapsed to
  // submit + done, and the log still replays to the same folded state.
  auto replayed = Wal::replay_file(store.wal_path());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->size(), 3u);  // j-1 submit+done, j-2 submit
}

TEST(JobStore, InjectedIoFaultSurfacesAsCleanErrorWithQueueIntact) {
  const std::string dir = fresh_dir("fault");
  JobStore store;
  ASSERT_TRUE(store.open(dir).is_ok());
  ASSERT_TRUE(store.record_submit("j-1", "a", "{}").is_ok());

  {
    util::fault::Config cfg;
    cfg.io_fail_prob = 1.0;
    FaultGuard guard(cfg);
    const auto st = store.record_submit("j-2", "b", "{}");
    ASSERT_FALSE(st.is_ok());
    EXPECT_EQ(st.code(), StatusCode::kIoError);
  }
  // The failed submit left no half-recorded job behind...
  JobRecord rec;
  EXPECT_FALSE(store.lookup("j-2", &rec));
  EXPECT_EQ(store.records().size(), 1u);
  // ...and with faults cleared the same id admits cleanly; a reopen replays
  // a consistent log (nothing torn was acknowledged).
  ASSERT_TRUE(store.record_submit("j-2", "b", "{}").is_ok());
  store.close();
  JobStore reopened;
  ASSERT_TRUE(reopened.open(dir).is_ok());
  EXPECT_EQ(reopened.records().size(), 2u);
}

// --- Admission ---------------------------------------------------------------

TEST(Admission, TokenBucketRefillsOnDeterministicClock) {
  double now = 0.0;
  AdmissionOptions opts;
  opts.rate_per_s = 1.0;
  opts.burst = 2.0;
  AdmissionController ctl(opts, [&now] { return now; });

  // Burst drains, then the next submission is told exactly how long to wait.
  EXPECT_TRUE(ctl.admit("alice").admitted);
  EXPECT_TRUE(ctl.admit("alice").admitted);
  const auto denied = ctl.admit("alice");
  EXPECT_FALSE(denied.admitted);
  EXPECT_NEAR(denied.retry_after_s, 1.0, 1e-9);
  // Buckets are per client: alice's drought does not throttle bob.
  EXPECT_TRUE(ctl.admit("bob").admitted);
  // Half a token after 0.5s: still denied, with a shorter wait.
  now = 0.5;
  EXPECT_NEAR(ctl.admit("alice").retry_after_s, 0.5, 1e-9);
  now = 1.6;
  EXPECT_TRUE(ctl.admit("alice").admitted);
  EXPECT_FALSE(ctl.admit("alice").admitted);
}

TEST(Admission, EvictsLongestIdleClientAtCapacity) {
  double now = 0.0;
  AdmissionOptions opts;
  opts.rate_per_s = 1.0;
  opts.burst = 1.0;
  opts.max_clients = 2;
  AdmissionController ctl(opts, [&now] { return now; });
  EXPECT_TRUE(ctl.admit("a").admitted);
  now = 1.0;
  EXPECT_TRUE(ctl.admit("b").admitted);
  now = 2.0;
  EXPECT_TRUE(ctl.admit("c").admitted);  // evicts "a" (idle longest)
  EXPECT_EQ(ctl.tracked_clients(), 2u);
}

// --- Service over HTTP -------------------------------------------------------

TEST(ServiceHttp, SubmitRunFetchResultEndToEnd) {
  const std::string dir = fresh_dir("e2e");
  Service service(quick_service_opts(dir));
  ASSERT_TRUE(service.start().is_ok());
  EXPECT_EQ(service.jobs_recovered(), 0u);

  obs::StatusServer server;
  service.mount(server);
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;

  // Structurally bad and semantically bad specs are rejected at admission.
  EXPECT_NE(http_post(server.port(), "/jobs", "{nope").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(
      http_post(server.port(), "/jobs", "{\"traces\":[\"x.csv\"],\"bogus_key\":1}")
          .find("HTTP/1.1 400"),
      std::string::npos);

  const std::string resp = http_post(server.port(), "/jobs", quick_spec_json(),
                                     "X-Abg-Client: e2e\r\n");
  ASSERT_NE(resp.find("HTTP/1.1 202"), std::string::npos) << resp;
  const std::string id = json_field(body_of(resp), "id");
  ASSERT_FALSE(id.empty());

  JobRecord rec;
  ASSERT_TRUE(wait_terminal(service, id, &rec));
  EXPECT_EQ(rec.phase, JobPhase::kDone);
  EXPECT_EQ(rec.client, "e2e");
  EXPECT_GE(rec.iterations, 1);

  const std::string status = http_get(server.port(), "/jobs/" + id);
  EXPECT_NE(status.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(body_of(status).find("\"state\":\"done\""), std::string::npos);

  const std::string result = http_get(server.port(), "/jobs/" + id + "/result");
  ASSERT_NE(result.find("HTTP/1.1 200"), std::string::npos);
  auto doc = util::parse_json(body_of(result));
  ASSERT_TRUE(doc.ok()) << body_of(result);
  EXPECT_TRUE(doc->find("found")->as_bool());
  EXPECT_FALSE(doc->find("partial")->as_bool());
  EXPECT_FALSE(doc->find("handler")->as_string().empty());

  // The result document and a batch report's job object are one shape: run
  // the same spec through an api::Engine, as `abagnale_cli --batch` does,
  // write it the way the batch report does, and compare field by field.
  // Only wall-clock values (seconds, wall_ms) may differ.
  {
    auto spec = api::parse_job_spec(quick_spec_json());
    ASSERT_TRUE(spec.ok()) << spec.status().to_string();
    api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
    auto handle = engine.submit(std::move(*spec));
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();
    obs::JsonWriter w;
    w.begin_object();
    w.key("name");
    w.value(handle->wait().name);
    api::job_result_to_json(w, handle->wait());
    w.end_object();
    auto batch = util::parse_json(w.take());
    ASSERT_TRUE(batch.ok()) << batch.status().to_string();

    // Each surface's own keys aside (the service's id/partial, the batch
    // report's name), the members must match in order.
    auto result_fields = [](const util::JsonValue& obj) {
      std::vector<std::pair<std::string, util::JsonValue>> out;
      for (const auto& m : obj.members()) {
        if (m.first != "id" && m.first != "partial" && m.first != "name") out.push_back(m);
      }
      return out;
    };
    const auto served_fields = result_fields(*doc);
    const auto batch_fields = result_fields(*batch);
    ASSERT_EQ(served_fields.size(), batch_fields.size());
    ASSERT_GE(served_fields.size(), 11u);  // every JobResult field of a found job
    for (std::size_t i = 0; i < served_fields.size(); ++i) {
      const auto& [key, served] = served_fields[i];
      const auto& batched = batch_fields[i].second;
      SCOPED_TRACE(key);
      EXPECT_EQ(key, batch_fields[i].first);
      EXPECT_EQ(served.type(), batched.type());
      if (key == "seconds") continue;
      if (key == "convergence") {
        ASSERT_EQ(served.items().size(), batched.items().size());
        for (std::size_t p = 0; p < served.items().size(); ++p) {
          const auto& a = served.items()[p];
          const auto& b = batched.items()[p];
          EXPECT_EQ(a.find("iteration")->as_double(), b.find("iteration")->as_double());
          EXPECT_EQ(a.find("best_distance")->as_double(), b.find("best_distance")->as_double());
          EXPECT_TRUE(a.find("wall_ms")->is_number());
          EXPECT_TRUE(b.find("wall_ms")->is_number());
        }
        continue;
      }
      EXPECT_EQ(served.as_string(), batched.as_string());
      EXPECT_EQ(served.as_double(), batched.as_double());
      EXPECT_EQ(served.as_bool(), batched.as_bool());
    }
  }

  const std::string list = http_get(server.port(), "/jobs");
  EXPECT_NE(body_of(list).find("\"id\":\"" + id + "\""), std::string::npos);

  EXPECT_NE(http_get(server.port(), "/jobs/j-999").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(
      http_request(server.port(), "DELETE /jobs/j-999 HTTP/1.1\r\nHost: x\r\n\r\n")
          .find("HTTP/1.1 404"),
      std::string::npos);

  server.stop();
  service.drain_and_stop();
}

TEST(ServiceHttp, RateLimitSheds429WithRetryAfter) {
  const std::string dir = fresh_dir("rate");
  ServiceOptions opts = quick_service_opts(dir);
  opts.admission.rate_per_s = 0.01;
  opts.admission.burst = 1.0;
  Service service(opts);
  ASSERT_TRUE(service.start().is_ok());
  obs::StatusServer server;
  service.mount(server);
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;

  // First request spends the only token (an invalid spec still counts: the
  // admission decision precedes validation). Second is throttled.
  EXPECT_NE(http_post(server.port(), "/jobs", "{bad").find("HTTP/1.1 400"),
            std::string::npos);
  const std::string throttled = http_post(server.port(), "/jobs", "{bad");
  EXPECT_NE(throttled.find("HTTP/1.1 429"), std::string::npos) << throttled;
  EXPECT_NE(throttled.find("Retry-After: "), std::string::npos) << throttled;
  // Distinct client => distinct bucket.
  EXPECT_NE(http_post(server.port(), "/jobs", "{bad", "X-Abg-Client: other\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);

  server.stop();
  service.drain_and_stop();
}

TEST(ServiceHttp, FullQueueSheds503WithRetryAfter) {
  const std::string dir = fresh_dir("full");
  ServiceOptions opts = quick_service_opts(dir);
  opts.queue_depth = 0;  // nothing fits: every submission sheds
  Service service(opts);
  ASSERT_TRUE(service.start().is_ok());
  obs::StatusServer server;
  service.mount(server);
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;

  const std::string resp = http_post(server.port(), "/jobs", quick_spec_json());
  EXPECT_NE(resp.find("HTTP/1.1 503"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Retry-After: "), std::string::npos) << resp;

  server.stop();
  service.drain_and_stop();
}

TEST(ServiceHttp, RawCsvBodyBecomesAJobAndBadCsvFailsCleanly) {
  const std::string dir = fresh_dir("csv");
  Service service(quick_service_opts(dir));
  ASSERT_TRUE(service.start().is_ok());
  obs::StatusServer server;
  service.mount(server);
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;

  // A non-JSON body is treated as a raw trace CSV. This one is garbage, so
  // the job must fail with a tagged error — not crash, not hang, not vanish.
  const std::string resp =
      http_post(server.port(), "/jobs", "this,is,not\na,trace,file\n");
  ASSERT_NE(resp.find("HTTP/1.1 202"), std::string::npos) << resp;
  const std::string id = json_field(body_of(resp), "id");
  ASSERT_FALSE(id.empty());
  JobRecord rec;
  ASSERT_TRUE(wait_terminal(service, id, &rec));
  EXPECT_EQ(rec.phase, JobPhase::kFailed);
  EXPECT_FALSE(rec.error.empty());

  server.stop();
  service.drain_and_stop();
}

// A job the service cannot finish within any test timeout: a deeper sketch
// space than quick_spec_json's and no iteration cap to speak of.
std::string endless_spec_json() {
  return std::string("{\"traces\":[\"") + reno_csv() +
         "\"],\"dsl\":\"reno\",\"seed\":5,\"max_iterations\":1000,"
         "\"initial_samples\":16,\"concretize_budget\":64,\"max_depth\":4,"
         "\"max_nodes\":7,\"max_holes\":2,\"timeout_s\":600}";
}

// DELETE of a running job cancels it through the engine, whether its
// refinement runs in process or on a worker fleet.
TEST(ServiceHttp, DeleteCancelsARunningJob) {
  for (const bool fleet : {false, true}) {
    SCOPED_TRACE(fleet ? "one-worker fleet" : "local");
    dist::Worker worker;
    obs::StatusServer worker_server;  // declared after worker: stops before it dies
    const std::string dir = fresh_dir(fleet ? "delete_fleet" : "delete_local");
    ServiceOptions opts = quick_service_opts(dir);
    if (fleet) {
      worker.mount(worker_server);
      std::string err;
      ASSERT_TRUE(worker_server.start(0, &err)) << err;
      opts.dist.workers = {{"127.0.0.1", worker_server.port()}};
    }
    Service service(opts);
    ASSERT_TRUE(service.start().is_ok());
    obs::StatusServer server;
    service.mount(server);
    std::string err;
    ASSERT_TRUE(server.start(0, &err)) << err;

    const std::string resp = http_post(server.port(), "/jobs", endless_spec_json());
    ASSERT_NE(resp.find("HTTP/1.1 202"), std::string::npos) << resp;
    const std::string id = json_field(body_of(resp), "id");
    ASSERT_TRUE(wait_for([&] {
      JobRecord rec;
      return service.store().lookup(id, &rec) && rec.phase == JobPhase::kRunning;
    }));

    const std::string del = http_request(
        server.port(), "DELETE /jobs/" + id + " HTTP/1.1\r\nHost: x\r\n\r\n");
    ASSERT_NE(del.find("HTTP/1.1 202"), std::string::npos) << del;
    EXPECT_EQ(json_field(body_of(del), "state"), "cancelling");

    JobRecord rec;
    ASSERT_TRUE(wait_terminal(service, id, &rec, 60.0));
    EXPECT_EQ(rec.phase, JobPhase::kCancelled) << job_phase_name(rec.phase);
    const std::string status = http_get(server.port(), "/jobs/" + id);
    EXPECT_EQ(json_field(body_of(status), "state"), "cancelled");

    server.stop();
    service.drain_and_stop();
  }
}

// DELETE of a job still waiting for the driver ends it at once, before the
// response: 200 "cancelled", it leaves the queue, it never gets a running
// record, and the job that holds the driver runs on to its solo result.
// (One more job sits between the two, so the cancelled one waits in the
// queue whether or not the job next in line counts as queued.)
TEST(ServiceHttp, DeleteOfAQueuedJobCancelsItAtOnce) {
  std::string solo_handler;
  double solo_distance = 0.0;
  {
    auto spec = api::parse_job_spec(quick_spec_json());
    ASSERT_TRUE(spec.ok()) << spec.status().to_string();
    api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
    auto handle = engine.submit(std::move(*spec));
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();
    const api::JobResult& r = handle->wait();
    ASSERT_TRUE(r.found()) << r.status.to_string();
    solo_handler = r.pipeline.handler_string();
    solo_distance = r.pipeline.distance();
  }

  const std::string dir = fresh_dir("delete_queued");
  Service service(quick_service_opts(dir));
  ASSERT_TRUE(service.start().is_ok());
  obs::StatusServer server;
  service.mount(server);
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;
  auto submit = [&] {
    const std::string resp = http_post(server.port(), "/jobs", quick_spec_json());
    EXPECT_NE(resp.find("HTTP/1.1 202"), std::string::npos) << resp;
    return json_field(body_of(resp), "id");
  };

  const std::string running = submit();
  ASSERT_TRUE(wait_for([&] {
    JobRecord rec;
    return service.store().lookup(running, &rec) && rec.phase == JobPhase::kRunning;
  }));
  const std::string next = submit();
  const std::string queued = submit();
  const std::size_t queue_before = service.queue_size();
  ASSERT_GE(queue_before, 1u);

  const std::string del = http_request(
      server.port(), "DELETE /jobs/" + queued + " HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_NE(del.find("HTTP/1.1 200"), std::string::npos) << del;
  EXPECT_EQ(json_field(body_of(del), "state"), "cancelled");
  EXPECT_EQ(service.queue_size(), queue_before - 1);
  JobRecord rec;
  ASSERT_TRUE(service.store().lookup(queued, &rec));
  EXPECT_EQ(rec.phase, JobPhase::kCancelled) << job_phase_name(rec.phase);
  ASSERT_TRUE(service.store().lookup(running, &rec));
  EXPECT_FALSE(job_phase_terminal(rec.phase)) << job_phase_name(rec.phase);

  ASSERT_TRUE(wait_terminal(service, running, &rec));
  ASSERT_EQ(rec.phase, JobPhase::kDone) << rec.error;
  auto doc = util::parse_json(read_file(service.store().result_path(running)));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->find("handler")->as_string(), solo_handler);
  EXPECT_EQ(doc->find("distance")->as_double(), solo_distance);
  ASSERT_TRUE(wait_terminal(service, next, &rec));
  EXPECT_EQ(rec.phase, JobPhase::kDone) << rec.error;
  EXPECT_EQ(service.queue_size(), 0u);

  auto replayed = Wal::replay_file(dir + "/wal.log");
  ASSERT_TRUE(replayed.ok());
  for (const auto& r : *replayed) EXPECT_NE(r, "running\t" + queued);

  server.stop();
  service.drain_and_stop();
}

// --- Crash and drain recovery ------------------------------------------------

// The tentpole guarantee: kill -9 mid-refinement, restart on the same state
// dir, and the recovered job's final answer is bit-identical to a run that
// was never interrupted.
TEST(ServeRecovery, KilledMidRunJobResumesBitIdentically) {
  // Reference: the same spec, uninterrupted, in its own state dir.
  std::string ref_handler;
  double ref_distance = 0.0;
  {
    const std::string dir = fresh_dir("ref");
    Service service(quick_service_opts(dir));
    ASSERT_TRUE(service.start().is_ok());
    const auto resp = service.handle_submit(
        obs::HttpRequest{"POST", "/jobs", "", {}, quick_spec_json()});
    ASSERT_EQ(resp.code, 202) << resp.body;
    const std::string id = json_field(resp.body, "id");
    JobRecord rec;
    ASSERT_TRUE(wait_terminal(service, id, &rec));
    ASSERT_EQ(rec.phase, JobPhase::kDone);
    auto doc = util::parse_json(read_file(service.store().result_path(id)));
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(doc->find("found")->as_bool());
    ref_handler = doc->find("handler")->as_string();
    ref_distance = doc->find("distance")->as_double();
    service.drain_and_stop();
  }

  // Victim: same spec, crashed mid-run.
  const std::string dir = fresh_dir("victim");
  std::string id;
  {
    Service service(quick_service_opts(dir));
    ASSERT_TRUE(service.start().is_ok());
    const auto resp = service.handle_submit(
        obs::HttpRequest{"POST", "/jobs", "", {}, quick_spec_json()});
    ASSERT_EQ(resp.code, 202) << resp.body;
    id = json_field(resp.body, "id");
    // Let at least one refinement iteration land, then pull the plug.
    ASSERT_TRUE(wait_for([&] {
      JobRecord rec;
      return service.store().lookup(id, &rec) && rec.iterations >= 1;
    }));
    service.abandon_for_test();
  }
  // The frozen WAL must say the job never finished — that is what a real
  // kill -9 leaves behind.
  {
    auto replayed = Wal::replay_file(dir + "/wal.log");
    ASSERT_TRUE(replayed.ok());
    bool terminal = false;
    for (const auto& r : *replayed) {
      if (r.rfind("done\t", 0) == 0 || r.rfind("failed\t", 0) == 0 ||
          r.rfind("cancelled\t", 0) == 0 || r.rfind("suspended\t", 0) == 0) {
        terminal = true;
      }
    }
    EXPECT_FALSE(terminal);
  }

  // Restart on the same state dir: the job is requeued, resumed from its
  // checkpoint, and must land on the same answer to the last bit.
  const auto recovered_before = obs::counter("serve.jobs_recovered").value();
  Service service(quick_service_opts(dir));
  ASSERT_TRUE(service.start().is_ok());
  EXPECT_EQ(service.jobs_recovered(), 1u);
  EXPECT_EQ(obs::counter("serve.jobs_recovered").value(), recovered_before + 1);
  JobRecord rec;
  ASSERT_TRUE(wait_terminal(service, id, &rec));
  ASSERT_EQ(rec.phase, JobPhase::kDone);
  auto doc = util::parse_json(read_file(service.store().result_path(id)));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->find("found")->as_bool());
  EXPECT_EQ(doc->find("handler")->as_string(), ref_handler);
  EXPECT_EQ(doc->find("distance")->as_double(), ref_distance);  // bit-exact
  service.drain_and_stop();
}

TEST(ServeRecovery, GracefulDrainParksJobsAndRestartFinishesThem) {
  const std::string dir = fresh_dir("drain");
  std::string id1, id2;
  {
    Service service(quick_service_opts(dir));
    ASSERT_TRUE(service.start().is_ok());
    const auto r1 = service.handle_submit(
        obs::HttpRequest{"POST", "/jobs", "", {}, quick_spec_json()});
    const auto r2 = service.handle_submit(
        obs::HttpRequest{"POST", "/jobs", "", {}, quick_spec_json()});
    ASSERT_EQ(r1.code, 202);
    ASSERT_EQ(r2.code, 202);
    id1 = json_field(r1.body, "id");
    id2 = json_field(r2.body, "id");
    // Drain immediately: with one driver, at most one job started; both must
    // end up parked (suspended) or legitimately finished, never lost.
    service.drain_and_stop();
    JobRecord rec1, rec2;
    ASSERT_TRUE(service.store().lookup(id1, &rec1));
    ASSERT_TRUE(service.store().lookup(id2, &rec2));
    EXPECT_TRUE(rec1.phase == JobPhase::kSuspended || rec1.phase == JobPhase::kDone)
        << job_phase_name(rec1.phase);
    EXPECT_TRUE(rec2.phase == JobPhase::kSuspended || rec2.phase == JobPhase::kDone)
        << job_phase_name(rec2.phase);
    // Draining admissions are closed.
    const auto refused = service.handle_submit(
        obs::HttpRequest{"POST", "/jobs", "", {}, quick_spec_json()});
    EXPECT_EQ(refused.code, 503);
  }
  Service service(quick_service_opts(dir));
  ASSERT_TRUE(service.start().is_ok());
  JobRecord rec1, rec2;
  ASSERT_TRUE(wait_terminal(service, id1, &rec1));
  ASSERT_TRUE(wait_terminal(service, id2, &rec2));
  EXPECT_EQ(rec1.phase, JobPhase::kDone);
  EXPECT_EQ(rec2.phase, JobPhase::kDone);
  service.drain_and_stop();
}

// Submits that race a drain are parked or shed, never run: a client thread
// keeps submitting while the service drains, and afterwards every job it
// was told was queued is parked as suspended (or finished before the drain
// reached it), and every job it was refused was never started.
TEST(ServeRecovery, SubmitsRacingADrainAreParkedOrShed) {
  const std::string dir = fresh_dir("drain_race");
  ServiceOptions opts = quick_service_opts(dir);
  opts.queue_depth = 1000;
  Service service(opts);
  ASSERT_TRUE(service.start().is_ok());
  std::vector<std::string> accepted;
  std::thread client([&] {
    for (;;) {
      const auto resp =
          service.handle_submit(obs::HttpRequest{"POST", "/jobs", "", {}, quick_spec_json()});
      if (resp.code != 202) {
        EXPECT_EQ(resp.code, 503) << resp.body;
        return;
      }
      accepted.push_back(json_field(resp.body, "id"));
    }
  });
  const bool backlog = wait_for([&] { return service.queue_size() >= 3; }, 30.0);
  service.drain_and_stop();
  client.join();
  ASSERT_TRUE(backlog);

  ASSERT_FALSE(accepted.empty());
  for (const auto& rec : service.store().records()) {
    SCOPED_TRACE(rec.id);
    if (std::find(accepted.begin(), accepted.end(), rec.id) != accepted.end()) {
      EXPECT_TRUE(rec.phase == JobPhase::kSuspended || rec.phase == JobPhase::kDone)
          << job_phase_name(rec.phase);
    } else {
      // Refused after its submit record: failed, and never started.
      EXPECT_EQ(rec.phase, JobPhase::kFailed) << job_phase_name(rec.phase);
      EXPECT_EQ(rec.iterations, 0);
    }
  }
}

// --- Distributed dispatch ------------------------------------------------------

// Virtual size of this process in kB (/proc/self/status VmSize).
long vm_size_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

// Distributed jobs run on the engine's fixed driver threads, so a long-lived
// daemon maps no new thread stack (8 MB by default) per job. The jobs name a
// missing trace file, so each fails fast and nothing but thread stacks
// could move VmSize.
TEST(ServeDist, FinishedCoordinatorThreadsAreReapedSoVmSizeStaysFlat) {
  dist::Worker worker;
  obs::StatusServer worker_server;  // declared after worker: stops before it dies
  worker.mount(worker_server);
  std::string err;
  ASSERT_TRUE(worker_server.start(0, &err)) << err;

  const std::string dir = fresh_dir("dist_reap");
  ServiceOptions opts = quick_service_opts(dir);
  opts.dist.workers = {{"127.0.0.1", worker_server.port()}};
  Service service(opts);
  ASSERT_TRUE(service.start().is_ok());

  const std::string spec = "{\"traces\":[\"" + dir + "/missing.csv\"],\"dsl\":\"reno\"}";
  auto run_jobs = [&](int n) {
    for (int i = 0; i < n; ++i) {
      obs::HttpRequest req;
      req.method = "POST";
      req.path = "/jobs";
      req.body = spec;
      const obs::HttpResponse resp = service.handle_submit(req);
      ASSERT_EQ(resp.code, 202) << resp.body;
      JobRecord rec;
      ASSERT_TRUE(wait_terminal(service, json_field(resp.body, "id"), &rec));
      ASSERT_EQ(rec.phase, JobPhase::kFailed);
    }
  };
  run_jobs(2);  // warm-up: allocator arenas and the stack cache
  const long before_kb = vm_size_kb();
  ASSERT_GT(before_kb, 0);
  constexpr int kJobs = 8;
  run_jobs(kJobs);
  const long growth_kb = vm_size_kb() - before_kb;
  // A thread per job would grow this by one stack per job. Allow two stacks
  // of slack.
  EXPECT_LT(growth_kb, 2 * 8192) << "VmSize grew " << growth_kb << " kB over " << kJobs
                                 << " distributed jobs";
  service.drain_and_stop();
}

// A fleet job served by the daemon is an api::Engine job: it shows up in
// the Engine's completion counter and per-job timing gauge like a local one.
TEST(ServeDist, DistributedJobIsAnEngineJob) {
  dist::Worker worker;
  obs::StatusServer worker_server;  // declared after worker: stops before it dies
  worker.mount(worker_server);
  std::string err;
  ASSERT_TRUE(worker_server.start(0, &err)) << err;

  const std::string dir = fresh_dir("dist_engine");
  ServiceOptions opts = quick_service_opts(dir);
  opts.dist.workers = {{"127.0.0.1", worker_server.port()}};
  Service service(opts);
  ASSERT_TRUE(service.start().is_ok());

  auto& completed = obs::counter("api.jobs_completed");
  auto& passes = obs::counter("dist.passes");
  const std::uint64_t completed_before = completed.value();
  const std::uint64_t passes_before = passes.value();
  const auto resp =
      service.handle_submit(obs::HttpRequest{"POST", "/jobs", "", {}, quick_spec_json()});
  ASSERT_EQ(resp.code, 202) << resp.body;
  const std::string id = json_field(resp.body, "id");
  JobRecord rec;
  ASSERT_TRUE(wait_terminal(service, id, &rec));
  ASSERT_EQ(rec.phase, JobPhase::kDone) << rec.error;

  EXPECT_GT(passes.value(), passes_before);  // the refinement ran on the worker
  EXPECT_EQ(completed.value(), completed_before + 1);
  // The Engine sets the gauge to the job's own JobResult::seconds, so an
  // earlier job under the same id cannot pass for this one.
  auto doc = util::parse_json(read_file(service.store().result_path(id)));
  ASSERT_TRUE(doc.ok());
  const double seconds = doc->find("seconds")->as_double();
  EXPECT_GT(seconds, 0.0);
  EXPECT_EQ(obs::gauge("api.job.seconds", {{"job", id}, {"cca", "reno"}}).last(), seconds);
  service.drain_and_stop();
}

// Each coordinator process numbers its fleet loads from a random base, so two
// daemons sharing a worker do not both load it as epoch 1; the numbers stay
// below 2^53, which the wire's JSON numbers carry exactly.
TEST(ServeDist, FleetEpochsStartAtARandomBase) {
  dist::Worker worker;
  obs::StatusServer worker_server;  // declared after worker: stops before it dies
  worker.mount(worker_server);
  std::string err;
  ASSERT_TRUE(worker_server.start(0, &err)) << err;

  const std::string dir = fresh_dir("dist_epoch");
  ServiceOptions opts = quick_service_opts(dir);
  opts.dist.workers = {{"127.0.0.1", worker_server.port()}};
  Service service(opts);
  ASSERT_TRUE(service.start().is_ok());
  const auto resp =
      service.handle_submit(obs::HttpRequest{"POST", "/jobs", "", {}, quick_spec_json()});
  ASSERT_EQ(resp.code, 202) << resp.body;
  JobRecord rec;
  ASSERT_TRUE(wait_terminal(service, json_field(resp.body, "id"), &rec));
  ASSERT_EQ(rec.phase, JobPhase::kDone) << rec.error;

  auto status = util::parse_json(body_of(http_get(worker_server.port(), "/v1/shard/status")));
  ASSERT_TRUE(status.ok());
  std::uint64_t epoch = 0;
  ASSERT_TRUE(util::json_integer(*status->find("epoch"), &epoch));  // < 2^53 or refused
  EXPECT_NE(epoch, 1u);
  EXPECT_LT(epoch, std::uint64_t{1} << 53);
  service.drain_and_stop();
}

// DELETE of a fleet job in the middle of a pass stops that pass on the
// worker too, so the next fleet job finds the worker free: the serve-smoke
// spec submitted right after the DELETE completes instead of failing on the
// worker's 409 "a pass is running".
TEST(ServeDist, DeletedJobFreesItsWorkerForTheNextJob) {
  dist::Worker worker;
  obs::StatusServer worker_server;  // declared after worker: stops before it dies
  worker.mount(worker_server);
  std::string err;
  ASSERT_TRUE(worker_server.start(0, &err)) << err;

  const std::string dir = fresh_dir("dist_cancel");
  ServiceOptions opts = quick_service_opts(dir);
  opts.dist.workers = {{"127.0.0.1", worker_server.port()}};
  Service service(opts);
  ASSERT_TRUE(service.start().is_ok());
  auto submit = [&](const std::string& spec) {
    const auto resp = service.handle_submit(obs::HttpRequest{"POST", "/jobs", "", {}, spec});
    EXPECT_EQ(resp.code, 202) << resp.body;
    return json_field(resp.body, "id");
  };

  auto& passes_cancelled = obs::counter("dist.worker.passes_cancelled");
  const std::uint64_t cancelled_before = passes_cancelled.value();
  const std::string cancelled = submit(endless_spec_json());
  ASSERT_TRUE(wait_for([&] {
    return json_field(body_of(http_get(worker_server.port(), "/v1/shard/status")), "state") ==
           "busy";
  }));
  const auto del =
      service.handle_delete(obs::HttpRequest{"DELETE", "/jobs/" + cancelled, "", {}, ""});
  ASSERT_EQ(del.code, 202) << del.body;
  const std::string next = submit(quick_spec_json());

  JobRecord rec;
  ASSERT_TRUE(wait_terminal(service, cancelled, &rec, 60.0));
  EXPECT_EQ(rec.phase, JobPhase::kCancelled) << job_phase_name(rec.phase);
  EXPECT_EQ(passes_cancelled.value(), cancelled_before + 1);
  ASSERT_TRUE(wait_terminal(service, next, &rec));
  EXPECT_EQ(rec.phase, JobPhase::kDone) << rec.error;
  service.drain_and_stop();
}

// Two fleet jobs submitted at once on a one-worker fleet take turns: each
// ends with the result it has when run alone, never one computed on the
// other job's shard.
TEST(ServeDist, ConcurrentFleetJobsTakeTurnsOnOneWorker) {
  std::string seed9 = quick_spec_json();
  const std::size_t at = seed9.find("\"seed\":5");
  ASSERT_NE(at, std::string::npos);
  seed9.replace(at, 8, "\"seed\":9");
  const std::vector<std::string> specs = {quick_spec_json(), seed9};

  // Solo references, in process: a fleet job's result is bit-identical to
  // its local run.
  std::vector<std::pair<std::string, double>> solo;
  for (const auto& spec : specs) {
    auto parsed = api::parse_job_spec(spec);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
    auto handle = engine.submit(std::move(*parsed));
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();
    const api::JobResult& r = handle->wait();
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    obs::JsonWriter w;
    w.begin_object();
    api::job_result_to_json(w, r);
    w.end_object();
    auto doc = util::parse_json(w.take());
    ASSERT_TRUE(doc.ok());
    solo.emplace_back(doc->find("handler")->as_string(), doc->find("distance")->as_double());
  }

  dist::Worker worker;
  obs::StatusServer worker_server;  // declared after worker: stops before it dies
  worker.mount(worker_server);
  std::string err;
  ASSERT_TRUE(worker_server.start(0, &err)) << err;
  const std::string dir = fresh_dir("dist_turns");
  ServiceOptions opts = quick_service_opts(dir);
  opts.engine.max_concurrent_jobs = 2;
  opts.dist.workers = {{"127.0.0.1", worker_server.port()}};
  Service service(opts);
  ASSERT_TRUE(service.start().is_ok());

  std::vector<std::string> ids;
  for (const auto& spec : specs) {
    const auto resp = service.handle_submit(obs::HttpRequest{"POST", "/jobs", "", {}, spec});
    ASSERT_EQ(resp.code, 202) << resp.body;
    ids.push_back(json_field(resp.body, "id"));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(specs[i]);
    JobRecord rec;
    ASSERT_TRUE(wait_terminal(service, ids[i], &rec));
    ASSERT_EQ(rec.phase, JobPhase::kDone) << rec.error;
    auto doc = util::parse_json(read_file(service.store().result_path(ids[i])));
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->find("handler")->as_string(), solo[i].first);
    EXPECT_EQ(doc->find("distance")->as_double(), solo[i].second);
  }
  service.drain_and_stop();
}

// A fleet job waiting for its turn behind a running one is cancelled at
// once by its DELETE, not when the running job ends.
TEST(ServeDist, JobWaitingForTheFleetIsCancelledAtOnce) {
  dist::Worker worker;
  obs::StatusServer worker_server;  // declared after worker: stops before it dies
  worker.mount(worker_server);
  std::string err;
  ASSERT_TRUE(worker_server.start(0, &err)) << err;
  const std::string dir = fresh_dir("dist_wait_cancel");
  ServiceOptions opts = quick_service_opts(dir);
  opts.engine.max_concurrent_jobs = 2;
  opts.dist.workers = {{"127.0.0.1", worker_server.port()}};
  Service service(opts);
  ASSERT_TRUE(service.start().is_ok());
  auto submit = [&](const std::string& spec) {
    const auto resp = service.handle_submit(obs::HttpRequest{"POST", "/jobs", "", {}, spec});
    EXPECT_EQ(resp.code, 202) << resp.body;
    return json_field(resp.body, "id");
  };
  auto del = [&](const std::string& id) {
    const auto resp = service.handle_delete(obs::HttpRequest{"DELETE", "/jobs/" + id, "", {}, ""});
    EXPECT_EQ(resp.code, 202) << resp.body;
  };

  const std::string running = submit(endless_spec_json());
  ASSERT_TRUE(wait_for([&] {
    return json_field(body_of(http_get(worker_server.port(), "/v1/shard/status")), "state") ==
           "busy";
  }));
  const std::string waiting = submit(quick_spec_json());
  ASSERT_TRUE(wait_for([&] {
    JobRecord rec;
    return service.store().lookup(waiting, &rec) && rec.phase == JobPhase::kRunning;
  }));
  del(waiting);
  JobRecord rec;
  ASSERT_TRUE(wait_terminal(service, waiting, &rec, 30.0));
  EXPECT_EQ(rec.phase, JobPhase::kCancelled) << job_phase_name(rec.phase);
  ASSERT_TRUE(service.store().lookup(running, &rec));
  EXPECT_EQ(rec.phase, JobPhase::kRunning) << job_phase_name(rec.phase);

  del(running);
  ASSERT_TRUE(wait_terminal(service, running, &rec, 60.0));
  EXPECT_EQ(rec.phase, JobPhase::kCancelled) << job_phase_name(rec.phase);
  service.drain_and_stop();
}

TEST(Service, StateDirIsSingleWriter) {
  const std::string dir = fresh_dir("lock");
  Service first(quick_service_opts(dir));
  ASSERT_TRUE(first.start().is_ok());
  Service second(quick_service_opts(dir));
  const auto st = second.start();
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("locked"), std::string::npos);
  first.drain_and_stop();
  // Once the first holder is gone the dir is claimable again.
  Service third(quick_service_opts(dir));
  EXPECT_TRUE(third.start().is_ok());
  third.drain_and_stop();
}

}  // namespace
}  // namespace abg::serve
