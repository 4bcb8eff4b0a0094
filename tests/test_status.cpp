// Status-surface tests (ISSUE 5): the Prometheus text exposition is checked
// with a strict line-level mini-parser (family naming, one TYPE per family,
// cumulative buckets, _sum/_count consistency, label escaping), and the
// embedded StatusServer is exercised end to end over real loopback sockets.
// Also covers the rate-limited logging predicates behind ABG_WARN_EVERY_N /
// ABG_WARN_ONCE.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/status_server.hpp"
#include "util/log.hpp"

namespace abg {
namespace {

// ---------------------------------------------------------------------------
// Prometheus exposition mini-parser. Splits the text into TYPE declarations
// and samples, enforcing the structural rules a real scraper relies on.
// ---------------------------------------------------------------------------

struct PromSample {
  std::string family;                          // metric name incl. _bucket etc.
  std::map<std::string, std::string> labels;   // unescaped values
  std::string value;                           // raw value text
};

struct PromDoc {
  std::map<std::string, std::string> types;  // family -> counter|gauge|histogram
  std::vector<PromSample> samples;
  std::vector<std::string> errors;
};

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) return false;
  }
  return !(s[0] >= '0' && s[0] <= '9');
}

// Parse `name{k="v",...} value` (labels optional). Returns false on any
// syntax error, with a reason in *err.
bool parse_sample(const std::string& line, PromSample* out, std::string* err) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  out->family = line.substr(0, i);
  if (!valid_name(out->family)) {
    *err = "bad metric name in: " + line;
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = line.find('=', i);
      if (eq == std::string::npos || eq + 1 >= line.size() || line[eq + 1] != '"') {
        *err = "bad label syntax in: " + line;
        return false;
      }
      const std::string key = line.substr(i, eq - i);
      if (!valid_name(key)) {
        *err = "bad label name '" + key + "' in: " + line;
        return false;
      }
      std::string value;
      std::size_t j = eq + 2;
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] == '\\') {
          if (j + 1 >= line.size()) {
            *err = "dangling escape in: " + line;
            return false;
          }
          ++j;
          if (line[j] == 'n') {
            value += '\n';
          } else if (line[j] == '\\' || line[j] == '"') {
            value += line[j];
          } else {
            *err = "bad escape in: " + line;
            return false;
          }
        } else {
          value += line[j];
        }
      }
      if (j >= line.size()) {
        *err = "unterminated label value in: " + line;
        return false;
      }
      out->labels[key] = value;
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') {
      *err = "unterminated label block in: " + line;
      return false;
    }
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') {
    *err = "missing value in: " + line;
    return false;
  }
  out->value = line.substr(i + 1);
  if (out->value.empty() || out->value.find(' ') != std::string::npos) {
    *err = "bad value in: " + line;
    return false;
  }
  return true;
}

PromDoc parse_prometheus(const std::string& text) {
  PromDoc doc;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream tl(line.substr(7));
      std::string family;
      std::string type;
      tl >> family >> type;
      if (!valid_name(family) || (type != "counter" && type != "gauge" && type != "histogram")) {
        doc.errors.push_back("bad TYPE line: " + line);
        continue;
      }
      if (doc.types.count(family) != 0) {
        doc.errors.push_back("duplicate TYPE for " + family);
      }
      doc.types[family] = type;
      continue;
    }
    if (line[0] == '#') continue;  // other comments are legal
    PromSample s;
    std::string err;
    if (!parse_sample(line, &s, &err)) {
      doc.errors.push_back(err);
      continue;
    }
    doc.samples.push_back(std::move(s));
  }
  return doc;
}

// Strip a histogram-sample suffix to recover the declared family name.
std::string base_family(const std::string& family) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string suf(suffix);
    if (family.size() > suf.size() &&
        family.compare(family.size() - suf.size(), suf.size(), suf) == 0) {
      const std::string base = family.substr(0, family.size() - suf.size());
      return base;
    }
  }
  return family;
}

TEST(PrometheusText, SnapshotRendersStructurallyValidExposition) {
  obs::Snapshot s;
  s.counters.push_back({"synth.iterations", {{"cca", "reno"}, {"job", "reno"}}, 12});
  s.counters.push_back({"synth.iterations", {{"cca", "cubic"}, {"job", "cubic"}}, 7});
  s.counters.push_back({"distance.dtw_evals", {}, 42});
  s.gauges.push_back({"pool.queue_depth", {}, 3.0, 9.0});
  s.histograms.push_back({"phase.seconds",
                          {{"job", "reno"}},
                          {0.5, 1.0, 2.0},
                          {4, 2, 1, 3},  // last = overflow bucket
                          10,
                          8.25,
                          0.1,
                          5.0});

  const std::string text = obs::prometheus_text(s);
  const PromDoc doc = parse_prometheus(text);
  ASSERT_TRUE(doc.errors.empty()) << doc.errors.front() << "\n" << text;

  // Every family is declared, abg_-prefixed, and every sample's base family
  // has a TYPE line.
  for (const auto& [family, type] : doc.types) {
    EXPECT_EQ(family.rfind("abg_", 0), 0u) << family;
    (void)type;
  }
  for (const auto& sample : doc.samples) {
    EXPECT_TRUE(doc.types.count(base_family(sample.family)) != 0)
        << "sample without TYPE: " << sample.family;
  }
  EXPECT_EQ(doc.types.at("abg_synth_iterations"), "counter");
  EXPECT_EQ(doc.types.at("abg_pool_queue_depth"), "gauge");
  EXPECT_EQ(doc.types.at("abg_pool_queue_depth_max"), "gauge");
  EXPECT_EQ(doc.types.at("abg_phase_seconds"), "histogram");

  // Labeled counter series stay distinct and keep their label values.
  int iteration_series = 0;
  for (const auto& sample : doc.samples) {
    if (sample.family != "abg_synth_iterations") continue;
    ++iteration_series;
    ASSERT_TRUE(sample.labels.count("job"));
    if (sample.labels.at("job") == "reno") {
      EXPECT_EQ(sample.value, "12");
    }
    if (sample.labels.at("job") == "cubic") {
      EXPECT_EQ(sample.value, "7");
    }
  }
  EXPECT_EQ(iteration_series, 2);

  // Gauge renders as two families: last value and the _max high-watermark.
  for (const auto& sample : doc.samples) {
    if (sample.family == "abg_pool_queue_depth") {
      EXPECT_EQ(sample.value, "3");
    }
    if (sample.family == "abg_pool_queue_depth_max") {
      EXPECT_EQ(sample.value, "9");
    }
  }

  // Histogram: buckets are cumulative, +Inf bucket == _count, and _sum
  // matches the snapshot.
  std::vector<std::pair<std::string, std::string>> buckets;  // (le, value)
  std::string sum;
  std::string count;
  for (const auto& sample : doc.samples) {
    if (sample.family == "abg_phase_seconds_bucket") {
      ASSERT_TRUE(sample.labels.count("le"));
      EXPECT_EQ(sample.labels.at("job"), "reno");
      buckets.emplace_back(sample.labels.at("le"), sample.value);
    }
    if (sample.family == "abg_phase_seconds_sum") sum = sample.value;
    if (sample.family == "abg_phase_seconds_count") count = sample.value;
  }
  ASSERT_EQ(buckets.size(), 4u);  // 3 edges + +Inf
  EXPECT_EQ(buckets[0], (std::pair<std::string, std::string>{"0.5", "4"}));
  EXPECT_EQ(buckets[1], (std::pair<std::string, std::string>{"1", "6"}));
  EXPECT_EQ(buckets[2], (std::pair<std::string, std::string>{"2", "7"}));
  EXPECT_EQ(buckets[3].first, "+Inf");
  EXPECT_EQ(buckets[3].second, "10");
  EXPECT_EQ(count, "10");
  EXPECT_EQ(sum, "8.25");
}

TEST(PrometheusText, DottedNamesAndLabelValuesAreEscaped) {
  obs::Snapshot s;
  s.counters.push_back({"a.b-c", {{"job", "x\"y\\z\nw"}}, 1});
  const std::string text = obs::prometheus_text(s);
  const PromDoc doc = parse_prometheus(text);
  ASSERT_TRUE(doc.errors.empty()) << doc.errors.front() << "\n" << text;
  ASSERT_EQ(doc.samples.size(), 1u);
  EXPECT_EQ(doc.samples[0].family, "abg_a_b_c");  // '.' and '-' both mangled
  // The parser unescapes, so a round-trip recovers the original value.
  EXPECT_EQ(doc.samples[0].labels.at("job"), "x\"y\\z\nw");
}

TEST(PrometheusText, PostMangleFamilyCollisionsAreDisambiguated) {
  obs::Snapshot s;
  // "a.b" and "a_b" both mangle to abg_a_b; "g.m"'s synthesized _max family
  // collides with the explicitly registered gauge "g.m_max". Both cases must
  // render without duplicate TYPE lines (the parser flags those).
  s.counters.push_back({"a.b", {}, 1});
  s.counters.push_back({"a_b", {}, 2});
  s.gauges.push_back({"g.m", {}, 2.0, 3.0});
  s.gauges.push_back({"g.m_max", {}, 4.0, 5.0});

  const std::string text = obs::prometheus_text(s);
  const PromDoc doc = parse_prometheus(text);
  ASSERT_TRUE(doc.errors.empty()) << doc.errors.front() << "\n" << text;

  // The first claimant keeps the mangled family; the collider is suffixed.
  // Both values survive under distinct declared families.
  std::map<std::string, std::string> counter_values;  // family -> value
  for (const auto& sample : doc.samples) {
    if (sample.family.rfind("abg_a_b", 0) == 0) counter_values[sample.family] = sample.value;
  }
  ASSERT_EQ(counter_values.size(), 2u);
  ASSERT_TRUE(counter_values.count("abg_a_b"));
  EXPECT_EQ(counter_values.at("abg_a_b"), "1");
  for (const auto& [family, value] : counter_values) {
    if (family != "abg_a_b") {
      EXPECT_EQ(value, "2");
    }
  }
}

TEST(PrometheusText, HelpLinesPrecedeTypeAndEscape) {
  obs::Snapshot s;
  s.counters.push_back({"helped.counter", {}, 3});
  s.counters.push_back({"silent.counter", {}, 4});
  s.gauges.push_back({"helped.gauge", {}, 1.0, 2.0});
  s.help["helped.counter"] = "path\\to glory\nsecond line";
  s.help["helped.gauge"] = "queue depth";

  const std::string text = obs::prometheus_text(s);
  const PromDoc doc = parse_prometheus(text);
  ASSERT_TRUE(doc.errors.empty()) << doc.errors.front() << "\n" << text;

  // HELP text is escaped per exposition format 0.0.4 (backslash and newline;
  // quotes stay literal) and sits immediately above the family's TYPE line.
  const std::string counter_header =
      "# HELP abg_helped_counter path\\\\to glory\\nsecond line\n"
      "# TYPE abg_helped_counter counter\n";
  EXPECT_NE(text.find(counter_header), std::string::npos) << text;
  const std::string gauge_header =
      "# HELP abg_helped_gauge queue depth\n"
      "# TYPE abg_helped_gauge gauge\n";
  EXPECT_NE(text.find(gauge_header), std::string::npos) << text;

  // The synthesized _max mirror has no registration of its own, so it must
  // not inherit the base gauge's help; undescribed families get no HELP.
  EXPECT_EQ(text.find("# HELP abg_helped_gauge_max"), std::string::npos) << text;
  EXPECT_EQ(text.find("# HELP abg_silent_counter"), std::string::npos) << text;
}

TEST(PrometheusText, DescribeFlowsFromLiveRegistry) {
  obs::reset_all();
  obs::describe("status_test.described", "events observed by the status test");
  obs::counter("status_test.described").add(1);
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# HELP abg_status_test_described "
                      "events observed by the status test\n"
                      "# TYPE abg_status_test_described counter\n"),
            std::string::npos)
      << text;
  // snapshot() eagerly registers (and describes) the overflow counter so an
  // exact gate like `--require obs.series_overflow=0` can always bind.
  EXPECT_NE(text.find("# HELP abg_obs_series_overflow "), std::string::npos) << text;
}

TEST(PrometheusText, LiveRegistryEndToEnd) {
  obs::reset_all();
  obs::counter("status_test.events", {{"job", "alpha"}}).add(5);
  obs::gauge("status_test.depth").set(2.5);
  const PromDoc doc = parse_prometheus(obs::prometheus_text());
  ASSERT_TRUE(doc.errors.empty()) << doc.errors.front();
  bool saw_counter = false;
  for (const auto& sample : doc.samples) {
    if (sample.family == "abg_status_test_events" && sample.labels.count("job") &&
        sample.labels.at("job") == "alpha") {
      saw_counter = true;
      EXPECT_EQ(sample.value, "5");
    }
  }
  EXPECT_TRUE(saw_counter);
  obs::reset_all();
}

// ---------------------------------------------------------------------------
// StatusServer end-to-end over loopback.
// ---------------------------------------------------------------------------

// Minimal HTTP client: one request, read to EOF (the server always closes).
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

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t p = response.find("\r\n\r\n");
  return p == std::string::npos ? std::string() : response.substr(p + 4);
}

TEST(StatusServerTest, ServesHealthMetricsAndCustomRoutes) {
  obs::reset_all();
  obs::counter("status_server.hits").add(3);

  obs::StatusServer server;
  server.handle("/jobs", "application/json",
                [] { return std::string("{\"jobs\":[{\"name\":\"reno\"}]}"); });
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;  // port 0: ephemeral
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("Connection: close"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  const PromDoc doc = parse_prometheus(body_of(metrics));
  EXPECT_TRUE(doc.errors.empty()) << (doc.errors.empty() ? "" : doc.errors.front());
  EXPECT_TRUE(doc.types.count("abg_status_server_hits"));
#if defined(__linux__)
  // Every export samples the process's memory from /proc (the daemon's and
  // each worker's /v1/metrics).
  double rss = 0.0, peak = 0.0;
  for (const auto& smp : doc.samples) {
    if (smp.family == "abg_process_rss_mb") rss = std::stod(smp.value);
    if (smp.family == "abg_process_peak_rss_mb") peak = std::stod(smp.value);
  }
  EXPECT_GT(rss, 0.0);
  EXPECT_GE(peak, rss);
#endif

  // A query string must not defeat route matching.
  const std::string jobs = http_get(server.port(), "/jobs?pretty=1");
  EXPECT_NE(jobs.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(jobs.find("Content-Type: application/json"), std::string::npos);
  EXPECT_TRUE(JsonChecker(body_of(jobs)).valid()) << body_of(jobs);
  EXPECT_EQ(body_of(jobs), "{\"jobs\":[{\"name\":\"reno\"}]}");

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);

  const std::string post =
      http_request(server.port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  obs::reset_all();
}

TEST(StatusServerTest, StopIsIdempotentAndRestartable) {
  obs::StatusServer server;
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;
  EXPECT_FALSE(server.start(0, &err));  // double start refused
  const std::uint16_t first_port = server.port();
  EXPECT_EQ(body_of(http_get(first_port, "/healthz")), "ok\n");
  server.stop();
  server.stop();  // idempotent
  ASSERT_TRUE(server.start(0, &err)) << err;
  EXPECT_EQ(body_of(http_get(server.port(), "/healthz")), "ok\n");
  server.stop();
}

TEST(StatusServerTest, ServesConcurrentPollers) {
  obs::StatusServer server;
  std::atomic<int> calls{0};
  server.handle("/poll", "text/plain", [&calls] {
    calls.fetch_add(1, std::memory_order_relaxed);
    return std::string("pong\n");
  });
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;
  // The server handles connections sequentially; concurrent clients queue in
  // the accept backlog and must all still get a complete response.
  std::vector<std::thread> clients;
  std::atomic<int> good{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([port = server.port(), &good] {
      if (body_of(http_get(port, "/poll")) == "pong\n") {
        good.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(good.load(), 8);
  EXPECT_EQ(calls.load(), 8);
  server.stop();
}

// ---------------------------------------------------------------------------
// Rich routes + request hardening (ISSUE 8): method dispatch with bodies,
// 405 + Allow on known paths, 413 on oversized bodies.
// ---------------------------------------------------------------------------

TEST(StatusServerTest, RichRoutesDispatchByMethodAndPrefix) {
  obs::StatusServer server;
  server.route("POST", "/jobs", [](const obs::HttpRequest& req) {
    obs::HttpResponse r = obs::HttpResponse::json(
        202, "{\"echo\":\"" + req.body + "\",\"client\":\"" +
                 req.header("x-abg-client") + "\"}");
    return r;
  });
  server.route("GET", "/jobs", [](const obs::HttpRequest& req) {
    return obs::HttpResponse::text(200, "path=" + req.path +
                                            " q=" + req.query_param("verbose"));
  });
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;

  // POST with a body and a client header reaches the handler intact.
  const std::string post = http_request(
      server.port(),
      "POST /jobs HTTP/1.1\r\nHost: x\r\nX-Abg-Client: tester\r\n"
      "Content-Length: 5\r\n\r\nhello");
  EXPECT_NE(post.find("HTTP/1.1 202 Accepted"), std::string::npos) << post;
  EXPECT_EQ(body_of(post), "{\"echo\":\"hello\",\"client\":\"tester\"}");

  // Prefix matching covers subpaths; query params parse.
  const std::string sub = http_get(server.port(), "/jobs/j-3/result?verbose=1");
  EXPECT_EQ(body_of(sub), "path=/jobs/j-3/result q=1");

  // A known path with an unsupported method earns 405 naming the supported
  // ones, not a 404.
  const std::string put =
      http_request(server.port(), "PUT /jobs HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(put.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos) << put;
  EXPECT_NE(put.find("Allow: GET, POST"), std::string::npos) << put;

  server.stop();
}

TEST(StatusServerTest, LegacyRoutesAdvertiseGetInAllowHeader) {
  obs::StatusServer server;
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;
  const std::string del =
      http_request(server.port(), "DELETE /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(del.find("HTTP/1.1 405 Method Not Allowed"), std::string::npos) << del;
  EXPECT_NE(del.find("Allow: GET"), std::string::npos) << del;
  server.stop();
}

TEST(StatusServerTest, OversizedBodiesEarn413BeforeBeingRead) {
  obs::StatusServer server;
  server.set_max_body_bytes(64);
  bool handler_ran = false;
  server.route("POST", "/jobs", [&handler_ran](const obs::HttpRequest&) {
    handler_ran = true;
    return obs::HttpResponse::text(200, "ok");
  });
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;

  // Declared oversized: shed on the Content-Length header alone. The body is
  // deliberately NOT sent — a correct server answers without waiting for it.
  const std::string big = http_request(
      server.port(),
      "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\n\r\n");
  EXPECT_NE(big.find("HTTP/1.1 413 Payload Too Large"), std::string::npos) << big;
  EXPECT_FALSE(handler_ran);

  // At the bound is fine.
  const std::string body(64, 'x');
  const std::string fits = http_request(
      server.port(), "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n" + body);
  EXPECT_NE(fits.find("HTTP/1.1 200 OK"), std::string::npos) << fits;
  EXPECT_TRUE(handler_ran);
  server.stop();
}

TEST(StatusServerTest, ChunkedTransferEncodingIsRejectedNotMisparsed) {
  obs::StatusServer server;
  server.route("POST", "/jobs",
               [](const obs::HttpRequest&) { return obs::HttpResponse::text(200, "ok"); });
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;
  const std::string resp = http_request(
      server.port(),
      "POST /jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 501"), std::string::npos) << resp;
  server.stop();
}

// ---------------------------------------------------------------------------
// Rate-limited logging predicates (ABG_WARN_EVERY_N / ABG_WARN_ONCE).
// ---------------------------------------------------------------------------

TEST(RateLimitedLog, EveryNPassesFirstThenEveryNth) {
  std::atomic<std::uint64_t> site{0};
  std::vector<int> logged;
  for (int i = 1; i <= 10; ++i) {
    if (util::detail::should_log_every_n(site, 3)) logged.push_back(i);
  }
  EXPECT_EQ(logged, (std::vector<int>{1, 4, 7, 10}));
}

TEST(RateLimitedLog, EveryNWithNOneAlwaysPasses) {
  std::atomic<std::uint64_t> site{0};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(util::detail::should_log_every_n(site, 1));
  }
}

TEST(RateLimitedLog, EveryNIsPerSiteNotGlobal) {
  std::atomic<std::uint64_t> site_a{0};
  std::atomic<std::uint64_t> site_b{0};
  EXPECT_TRUE(util::detail::should_log_every_n(site_a, 100));
  // A different site's counter is untouched by site_a's calls.
  EXPECT_FALSE(util::detail::should_log_every_n(site_a, 100));
  EXPECT_TRUE(util::detail::should_log_every_n(site_b, 100));
}

TEST(RateLimitedLog, OncePerKeyIsProcessWide) {
  EXPECT_TRUE(util::detail::should_log_once("test_status.key_a"));
  EXPECT_FALSE(util::detail::should_log_once("test_status.key_a"));
  EXPECT_TRUE(util::detail::should_log_once("test_status.key_b"));
  EXPECT_FALSE(util::detail::should_log_once("test_status.key_b"));
  EXPECT_FALSE(util::detail::should_log_once("test_status.key_a"));
}

TEST(RateLimitedLog, MacrosCompileAndRespectTheLimiter) {
  // Silence output: the predicates still run with logging off, so this
  // exercises the macro plumbing without spamming stderr.
  const util::LogLevel prev = util::log_level();
  util::set_log_level(util::LogLevel::kOff);
  for (int i = 0; i < 100; ++i) {
    ABG_WARN_EVERY_N(10, "suppressed %d", i);
    ABG_WARN_ONCE("test_status.macro_key", "suppressed once %d", i);
  }
  util::set_log_level(prev);
}

}  // namespace
}  // namespace abg
