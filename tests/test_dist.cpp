// Distributed refinement search (ISSUE 9): coordinator/worker sharding must
// be *bit-identical* to a single-process run — same winner, same distance,
// same per-iteration bucket scores — including after a worker dies mid-search
// and its shard is reassigned, and when a checkpoint written by one executor
// resumes on the other. Both run the one refinement driver, so a distributed
// job also records the in-process run's metrics and honors its fault hooks.
// Also covers the worker protocol's malformed-message behavior (clean
// kParseError envelopes, never a wedged worker), the canonical JobSpec codec
// round-trip, endpoint parsing, and the versioned /v1 HTTP surface with
// Deprecation headers on legacy spellings.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "api/engine.hpp"
#include "api/manifest.hpp"
#include "dist/coordinator.hpp"
#include "dist/http_client.hpp"
#include "dist/worker.hpp"
#include "dsl/dsl.hpp"
#include "net/simulator.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/status_server.hpp"
#include "synth/buckets.hpp"
#include "synth/checkpoint.hpp"
#include "synth/shard.hpp"
#include "trace/trace_io.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace abg {
namespace {

// --- Shared fixture: a seeded reno trace on disk + a quick job spec. --------

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
    const std::string p = testing::TempDir() + "abg_dist_reno.csv";
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
         "\"max_nodes\":5,\"max_holes\":2,\"timeout_s\":120}";
}

api::JobSpec quick_spec() {
  auto spec = api::spec_from_json(quick_spec_json());
  EXPECT_TRUE(spec.ok()) << spec.status().to_string();
  return *spec;
}

// Run the same spec through the single-process engine (the golden).
api::JobResult run_single(api::JobSpec spec) {
  api::Engine engine({.threads = 2, .max_concurrent_jobs = 1});
  auto handle = engine.submit(std::move(spec));
  EXPECT_TRUE(handle.ok()) << handle.status().to_string();
  return handle->wait();
}

// N in-process workers, each a Worker mounted on its own loopback server.
// kill(i) stops worker i's server: from the coordinator's point of view this
// is indistinguishable from kill -9 (every RPC to it fails from then on).
class Fleet {
 public:
  explicit Fleet(int n) {
    for (int i = 0; i < n; ++i) {
      auto e = std::make_unique<Entry>();
      e->worker.mount(e->server);
      std::string err;
      EXPECT_TRUE(e->server.start(0, &err)) << err;
      endpoints_.push_back({"127.0.0.1", e->server.port()});
      entries_.push_back(std::move(e));
    }
  }

  const std::vector<dist::WorkerEndpoint>& endpoints() const { return endpoints_; }
  std::uint16_t port(std::size_t i) const { return endpoints_[i].port; }
  void kill(std::size_t i) { entries_[i]->server.stop(); }

 private:
  struct Entry {
    dist::Worker worker;
    obs::StatusServer server;  // declared after worker: stops before it dies
  };
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<dist::WorkerEndpoint> endpoints_;
};

dist::CoordinatorOptions quick_copts(const Fleet& fleet) {
  dist::CoordinatorOptions copts;
  copts.workers = fleet.endpoints();
  copts.rpc_timeout_s = 30.0;
  copts.poll_interval_s = 0.005;
  return copts;
}

// Bit-identity: winner, distance (exact double equality — the wire carries
// hex floats), and the full per-iteration bucket-level report series. Cache
// tallies are the one sanctioned divergence (per-worker caches), so they are
// deliberately not compared.
void expect_bit_identical(const api::JobResult& golden, const api::JobResult& got) {
  ASSERT_TRUE(golden.status.is_ok()) << golden.status.to_string();
  ASSERT_TRUE(got.status.is_ok()) << got.status.to_string();
  const synth::SynthesisResult& a = golden.pipeline.synthesis;
  const synth::SynthesisResult& b = got.pipeline.synthesis;
  ASSERT_TRUE(a.best.valid());
  ASSERT_TRUE(b.best.valid());
  EXPECT_EQ(dsl::to_string(*a.best.handler), dsl::to_string(*b.best.handler));
  EXPECT_EQ(dsl::to_string(*a.best.sketch), dsl::to_string(*b.best.sketch));
  EXPECT_EQ(a.best.distance, b.best.distance);
  EXPECT_EQ(golden.pipeline.dsl_name, got.pipeline.dsl_name);
  EXPECT_EQ(golden.segments_total, got.segments_total);
  EXPECT_EQ(a.initial_buckets, b.initial_buckets);
  EXPECT_EQ(a.total_sketches, b.total_sketches);
  EXPECT_EQ(a.total_handlers_scored, b.total_handlers_scored);
  EXPECT_EQ(a.candidates_validated, b.candidates_validated);

  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const synth::IterationReport& ia = a.iterations[i];
    const synth::IterationReport& ib = b.iterations[i];
    EXPECT_EQ(ia.n_target, ib.n_target) << "iteration " << i;
    EXPECT_EQ(ia.keep, ib.keep) << "iteration " << i;
    EXPECT_EQ(ia.segments_used, ib.segments_used) << "iteration " << i;
    EXPECT_EQ(ia.best_distance, ib.best_distance) << "iteration " << i;
    ASSERT_EQ(ia.buckets.size(), ib.buckets.size()) << "iteration " << i;
    for (std::size_t k = 0; k < ia.buckets.size(); ++k) {
      const synth::BucketReport& ba = ia.buckets[k];
      const synth::BucketReport& bb = ib.buckets[k];
      EXPECT_EQ(ba.label, bb.label) << "iteration " << i << " rank " << k;
      EXPECT_EQ(ba.score, bb.score) << "bucket " << ba.label;
      EXPECT_EQ(ba.sketches_enumerated, bb.sketches_enumerated) << "bucket " << ba.label;
      EXPECT_EQ(ba.handlers_scored, bb.handlers_scored) << "bucket " << ba.label;
      EXPECT_EQ(ba.exhausted, bb.exhausted) << "bucket " << ba.label;
      EXPECT_EQ(ba.retained, bb.retained) << "bucket " << ba.label;
    }
  }
}

// --- Endpoint parsing. ------------------------------------------------------

TEST(DistEndpoints, ParsesHostPortList) {
  auto eps = dist::parse_worker_endpoints("7001,127.0.0.1:7002, 10.0.0.3:80");
  ASSERT_TRUE(eps.ok()) << eps.status().to_string();
  ASSERT_EQ(eps->size(), 3u);
  EXPECT_EQ((*eps)[0].host, "127.0.0.1");
  EXPECT_EQ((*eps)[0].port, 7001);
  EXPECT_EQ((*eps)[1].host, "127.0.0.1");
  EXPECT_EQ((*eps)[1].port, 7002);
  EXPECT_EQ((*eps)[2].host, "10.0.0.3");
  EXPECT_EQ((*eps)[2].port, 80);
}

TEST(DistEndpoints, RejectsMalformedLists) {
  for (const char* bad : {"", " ", "7001,,7002", "host:", ":7001", "127.0.0.1:0",
                          "127.0.0.1:65536", "127.0.0.1:abc"}) {
    auto eps = dist::parse_worker_endpoints(bad);
    EXPECT_FALSE(eps.ok()) << "accepted '" << bad << "'";
    if (!eps.ok()) {
      EXPECT_EQ(eps.status().code(), util::StatusCode::kInvalidArgument) << bad;
    }
  }
}

// --- The golden: 3-worker distributed run == single-process run. ------------

TEST(Dist, ThreeWorkerRunBitIdenticalToSingleProcess) {
  const api::JobSpec spec = quick_spec();
  const api::JobResult golden = run_single(spec);

  Fleet fleet(3);
  dist::Coordinator coord(quick_copts(fleet));
  auto& deprecated = obs::counter("http.deprecated_requests");
  const auto deprecated0 = deprecated.value();
  const api::JobResult got = coord.run(spec);
  expect_bit_identical(golden, got);
  // Every shard RPC the coordinator sends is on the /v1 spelling.
  EXPECT_EQ(deprecated.value(), deprecated0);
}

TEST(Dist, RejectsNonDistributableSpecs) {
  Fleet fleet(1);
  dist::Coordinator coord(quick_copts(fleet));

  api::JobSpec in_memory;  // traces by value cannot ship to a worker
  in_memory.add_trace(net::run_connection("reno", trace::Environment{}));
  EXPECT_FALSE(dist::spec_is_distributable(in_memory));
  const api::JobResult r = coord.run(in_memory);
  EXPECT_EQ(r.status.code(), util::StatusCode::kInvalidArgument);

  EXPECT_TRUE(dist::spec_is_distributable(quick_spec()));
}

// --- Worker death: shard reassignment completes with the same winner. -------

TEST(Dist, WorkerDeathMidSearchReassignsAndMatchesWinner) {
  const api::JobSpec spec = quick_spec();
  const api::JobResult golden = run_single(spec);
  ASSERT_GE(golden.pipeline.synthesis.iterations.size(), 2u);

  // Pick a bucket that survives iteration 0's cut and kill its owner right
  // after the first merged iteration, so the dead worker is guaranteed to
  // hold live work that must move.
  const auto& first = golden.pipeline.synthesis.iterations.front();
  std::string victim_label;
  for (const auto& b : first.buckets) {
    if (b.retained) {
      victim_label = b.label;
      break;
    }
  }
  ASSERT_FALSE(victim_label.empty());
  const auto buckets = synth::make_buckets(dsl::dsl_by_name("reno"));
  std::size_t victim_index = buckets.size();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].label == victim_label) {
      victim_index = i;
      break;
    }
  }
  ASSERT_LT(victim_index, buckets.size());

  Fleet fleet(3);
  const std::size_t victim_worker = victim_index % fleet.endpoints().size();
  auto& c_reassigned = obs::counter("dist.shards_reassigned");
  auto& c_lost = obs::counter("dist.workers_lost");
  const std::uint64_t reassigned_before = c_reassigned.value();
  const std::uint64_t lost_before = c_lost.value();

  api::JobSpec dspec = spec;
  std::atomic<bool> killed{false};
  dspec.with_iteration_callback([&](const synth::IterationReport&) {
    if (!killed.exchange(true)) fleet.kill(victim_worker);
  });

  dist::CoordinatorOptions copts = quick_copts(fleet);
  copts.rpc_timeout_s = 5.0;  // a dead loopback port refuses instantly anyway
  copts.max_rpc_failures = 2;
  dist::Coordinator coord(copts);
  const api::JobResult got = coord.run(dspec);

  EXPECT_GE(c_lost.value(), lost_before + 1);
  EXPECT_GE(c_reassigned.value(), reassigned_before + 1);
  expect_bit_identical(golden, got);
}

// --- One driver: checkpoints move between executors, observability holds. --

// Restores a clean fault injector however the test exits.
struct FaultGuard {
  explicit FaultGuard(const util::fault::Config& cfg) { util::fault::set_config(cfg); }
  ~FaultGuard() { util::fault::set_config({}); }
};

util::fault::Config cancel_after(int iterations) {
  util::fault::Config cfg;
  cfg.cancel_after_iterations = iterations;
  return cfg;
}

api::JobSpec checkpointed(api::JobSpec spec, const std::string& path, bool resume) {
  spec.with_checkpoint(path, resume);
  return spec;
}

TEST(Dist, InProcessCheckpointResumesOnFleetBitIdentically) {
  const api::JobSpec spec = quick_spec();
  const api::JobResult golden = run_single(spec);
  ASSERT_GE(golden.pipeline.synthesis.iterations.size(), 2u);
  const std::string ckpt = testing::TempDir() + "abg_dist_local_to_fleet.ckpt";
  std::remove(ckpt.c_str());
  {
    FaultGuard guard(cancel_after(1));
    const api::JobResult stopped = run_single(checkpointed(spec, ckpt, false));
    ASSERT_EQ(stopped.status.code(), util::StatusCode::kCancelled);
    ASSERT_EQ(stopped.pipeline.synthesis.iterations.size(), 1u);
  }
  Fleet fleet(3);
  dist::Coordinator coord(quick_copts(fleet));
  expect_bit_identical(golden, coord.run(checkpointed(spec, ckpt, true)));
}

TEST(Dist, FleetCheckpointResumesInProcessBitIdentically) {
  const api::JobSpec spec = quick_spec();
  const api::JobResult golden = run_single(spec);
  ASSERT_GE(golden.pipeline.synthesis.iterations.size(), 2u);
  const std::string ckpt = testing::TempDir() + "abg_dist_fleet_to_local.ckpt";
  std::remove(ckpt.c_str());
  {
    FaultGuard guard(cancel_after(1));
    Fleet fleet(3);
    dist::Coordinator coord(quick_copts(fleet));
    const api::JobResult stopped = coord.run(checkpointed(spec, ckpt, false));
    ASSERT_EQ(stopped.status.code(), util::StatusCode::kCancelled);
    ASSERT_EQ(stopped.pipeline.synthesis.iterations.size(), 1u);
  }
  expect_bit_identical(golden, run_single(checkpointed(spec, ckpt, true)));
}

TEST(Dist, CoordinatorRecordsIterationTimingAndJobLabeledSeries) {
  api::JobSpec spec = quick_spec();
  spec.with_name("dist-obs");
  auto& h_iter = obs::histogram("synth.iter_us");
  auto& c_iters_job = obs::counter("synth.iterations", api::job_obs_labels(spec));
  const std::uint64_t timed_before = h_iter.count();
  const std::uint64_t iters_before = c_iters_job.value();

  Fleet fleet(3);
  dist::Coordinator coord(quick_copts(fleet));
  const api::JobResult got = coord.run(spec);
  ASSERT_TRUE(got.status.is_ok()) << got.status.to_string();
  const std::size_t iterations = got.pipeline.synthesis.iterations.size();
  ASSERT_GE(iterations, 1u);
  EXPECT_EQ(h_iter.count() - timed_before, iterations);
  EXPECT_EQ(c_iters_job.value() - iters_before, iterations);
}

TEST(Dist, CoordinatorHonorsInjectedCancelAfter) {
  FaultGuard guard(cancel_after(1));
  Fleet fleet(3);
  dist::Coordinator coord(quick_copts(fleet));
  const api::JobResult got = coord.run(quick_spec());
  EXPECT_EQ(got.status.code(), util::StatusCode::kCancelled) << got.status.to_string();
  EXPECT_TRUE(got.pipeline.synthesis.partial);
  EXPECT_FALSE(got.pipeline.synthesis.timed_out);
  EXPECT_TRUE(got.found());  // best-so-far from the completed iteration
  EXPECT_EQ(got.pipeline.synthesis.iterations.size(), 1u);
}

TEST(Dist, AllWorkersLostFailsCleanly) {
  const api::JobSpec spec = quick_spec();
  Fleet fleet(2);
  api::JobSpec dspec = spec;
  std::atomic<bool> killed{false};
  dspec.with_iteration_callback([&](const synth::IterationReport&) {
    if (!killed.exchange(true)) {
      fleet.kill(0);
      fleet.kill(1);
    }
  });
  dist::CoordinatorOptions copts = quick_copts(fleet);
  copts.rpc_timeout_s = 2.0;
  copts.max_rpc_failures = 1;
  dist::Coordinator coord(copts);
  const api::JobResult got = coord.run(dspec);
  EXPECT_EQ(got.status.code(), util::StatusCode::kIoError) << got.status.to_string();
}

// --- Worker protocol: malformed messages never wedge the worker. ------------

std::string post(const Fleet& fleet, const std::string& path, const std::string& body) {
  auto r = dist::http_request("127.0.0.1", fleet.port(0), "POST", path, body, 10.0);
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  return r.ok() ? std::to_string(r->code) + " " + r->body : std::string();
}

TEST(Dist, MalformedProtocolMessagesAnswerParseErrorEnvelopes) {
  Fleet fleet(1);

  // Truncated JSON body.
  std::string r = post(fleet, "/shard/load", "{\"epoch\": 1, \"spec\": {");
  EXPECT_EQ(r.compare(0, 3, "400"), 0) << r;
  EXPECT_NE(r.find("\"error\""), std::string::npos) << r;
  EXPECT_NE(r.find("parse-error"), std::string::npos) << r;

  // Wrong top-level type.
  r = post(fleet, "/shard/load", "[1,2,3]");
  EXPECT_EQ(r.compare(0, 3, "400"), 0) << r;
  EXPECT_NE(r.find("parse-error"), std::string::npos) << r;

  // Structurally valid but missing fields.
  r = post(fleet, "/shard/iterate", "{\"epoch\": 1}");
  EXPECT_EQ(r.compare(0, 3, "400"), 0) << r;
  EXPECT_NE(r.find("pass_id"), std::string::npos) << r;

  // Integers the worker would otherwise cast unchecked: a fraction, a value
  // past 2^53 (1e300 was undefined behaviour), anywhere a count, epoch or
  // segment index is read. Each is a parse error before any shard state is
  // consulted, so none of them may reach the 409 "no shard loaded" answer.
  const std::string good_state =
      "{\"label\":\"{}\",\"sketches\":0,\"stream_hash\":\"0\",\"handlers_scored\":0,"
      "\"exhausted\":false,"
      "\"rng\":[\"1\",\"2\",\"3\",\"4\",\"0\",\"0x0p+0\"],\"best_distance\":\"inf\","
      "\"best_sketch\":\"\",\"best_handler\":\"\"}";
  auto with_sketches = [&](const std::string& v) {
    std::string st = good_state;
    st.replace(st.find("\"sketches\":0"), 12, "\"sketches\":" + v);
    return st;
  };
  const std::vector<std::pair<std::string, std::string>> bad_numbers{
      {"/shard/restore", "{\"epoch\":1.5,\"states\":[]}"},
      {"/shard/restore", "{\"epoch\":1e300,\"states\":[]}"},
      {"/shard/restore", "{\"epoch\":1,\"states\":[" + with_sketches("2.5") + "]}"},
      {"/shard/restore", "{\"epoch\":1,\"states\":[" + with_sketches("1e300") + "]}"},
      {"/shard/restore", "{\"epoch\":1,\"states\":[" + with_sketches("-1") + "]}"},
      {"/shard/iterate",
       "{\"epoch\":1,\"pass_id\":1,\"target\":4,\"buckets\":[\"{}\"],\"working\":[0.5]}"},
      {"/shard/iterate",
       "{\"epoch\":1,\"pass_id\":1,\"target\":1e300,\"buckets\":[\"{}\"]}"},
  };
  for (const auto& [route, body] : bad_numbers) {
    r = post(fleet, route, body);
    EXPECT_EQ(r.compare(0, 3, "400"), 0) << route << " " << body << "\n" << r;
    EXPECT_NE(r.find("parse-error"), std::string::npos) << r;
  }
  // The same state with whole-number fields decodes (and only then meets the
  // missing shard), so the cases above fail on their numbers alone.
  r = post(fleet, "/shard/restore", "{\"epoch\":1,\"states\":[" + good_state + "]}");
  EXPECT_EQ(r.compare(0, 3, "409"), 0) << r;

  // Out-of-order: iterate before any shard is loaded.
  r = post(fleet, "/shard/iterate",
           "{\"epoch\":1,\"pass_id\":1,\"target\":4,\"buckets\":[\"{}\"]}");
  EXPECT_EQ(r.compare(0, 3, "409"), 0) << r;
  EXPECT_NE(r.find("conflict"), std::string::npos) << r;

  // A state entry with a corrupt RNG word.
  r = post(fleet, "/shard/restore",
           "{\"epoch\":1,\"states\":[{\"label\":\"{}\",\"sketches\":0,\"stream_hash\":\"0\","
           "\"handlers_scored\":0,\"exhausted\":false,\"rng\":[\"x\",\"0\",\"0\","
           "\"0\",\"0\",\"0x0p+0\"],\"best_distance\":\"inf\",\"best_sketch\":\"\","
           "\"best_handler\":\"\"}]}");
  // The worker decodes the states before consulting its shard state, so a
  // corrupt payload is a parse error even with no shard loaded.
  EXPECT_EQ(r.compare(0, 3, "400"), 0) << r;
  EXPECT_NE(r.find("parse-error"), std::string::npos) << r;

  // The worker is still serviceable: a real load succeeds afterwards.
  const api::JobSpec spec = quick_spec();
  const auto buckets = synth::make_buckets(dsl::dsl_by_name("reno"));
  ASSERT_FALSE(buckets.empty());
  obs::JsonWriter w;
  w.begin_object();
  w.key("epoch");
  w.value(std::uint64_t{1});
  w.key("spec");
  w.raw(api::spec_to_json(spec));
  w.key("buckets");
  w.begin_array();
  w.value(buckets.front().label);
  w.end_array();
  w.end_object();
  r = post(fleet, "/shard/load", w.take());
  EXPECT_EQ(r.compare(0, 3, "200"), 0) << r;
  EXPECT_NE(r.find("pool_fingerprint"), std::string::npos) << r;

  // And now a corrupt restore reaches the state decoder and names the field.
  r = post(fleet, "/shard/restore",
           "{\"epoch\":1,\"states\":[{\"label\":\"" + buckets.front().label +
               "\",\"sketches\":0,\"stream_hash\":\"0\",\"handlers_scored\":0,\"exhausted\":false,"
               "\"rng\":[\"x\",\"0\",\"0\",\"0\",\"0\",\"0x0p+0\"],"
               "\"best_distance\":\"inf\",\"best_sketch\":\"\",\"best_handler\":\"\"}]}");
  EXPECT_EQ(r.compare(0, 3, "400"), 0) << r;
  EXPECT_NE(r.find("parse-error"), std::string::npos) << r;

  // Still serviceable: status answers idle with the loaded epoch.
  auto status = dist::http_request("127.0.0.1", fleet.port(0), "GET", "/shard/status", "", 10.0);
  ASSERT_TRUE(status.ok()) << status.status().to_string();
  EXPECT_EQ(status->code, 200);
  EXPECT_NE(status->body.find("\"idle\""), std::string::npos) << status->body;
}

// Adopting a bucket mid-search re-derives its sketches and checks the hash
// the sender recorded over them.
TEST(Dist, ShardLoadChecksTheStreamHash) {
  Fleet fleet(1);
  const api::JobSpec spec = quick_spec();
  const synth::SynthesisOptions& opts = spec.pipeline.synth;
  const auto reno = dsl::dsl_by_name(*spec.pipeline.dsl_override);
  synth::BucketSearchState st;
  st.bucket = synth::make_buckets(reno).front();
  st.rng = util::Rng(synth::bucket_rng_seed(st.bucket.label, opts.seed));
  ASSERT_TRUE(
      synth::enumerate_bucket_sketches(reno, opts, st, 2, [] { return false; }).is_ok());
  ASSERT_FALSE(st.sketches.empty());
  synth::BucketCheckpoint ck = synth::bucket_state_to_checkpoint(st);

  auto load = [&](const synth::BucketCheckpoint& state) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("epoch");
    w.value(std::uint64_t{1});
    w.key("spec");
    w.raw(api::spec_to_json(spec));
    w.key("buckets");
    w.begin_array();
    w.value(state.label);
    w.end_array();
    w.key("states");
    w.begin_array();
    synth::write_bucket_checkpoint(w, state);
    w.end_array();
    w.end_object();
    return post(fleet, "/v1/shard/load", w.take());
  };
  std::string r = load(ck);
  EXPECT_EQ(r.compare(0, 3, "200"), 0) << r;
  ck.stream_hash ^= 1;
  r = load(ck);
  EXPECT_EQ(r.compare(0, 3, "400"), 0) << r;
  EXPECT_NE(r.find("parse-error"), std::string::npos) << r;
  EXPECT_NE(r.find("stream hash"), std::string::npos) << r;
}

// --- The versioned surface: /v1 canonical, legacy spellings deprecated. -----

TEST(Dist, V1RoutesAnswerWithoutDeprecationLegacyWithIt) {
  Fleet fleet(1);
  auto v1 = dist::http_request("127.0.0.1", fleet.port(0), "GET", "/v1/shard/status", "", 10.0);
  ASSERT_TRUE(v1.ok()) << v1.status().to_string();
  EXPECT_EQ(v1->code, 200);
  EXPECT_EQ(v1->head.find("Deprecation:"), std::string::npos) << v1->head;

  auto& deprecated = obs::counter("http.deprecated_requests");
  const auto deprecated0 = deprecated.value();
  auto legacy = dist::http_request("127.0.0.1", fleet.port(0), "GET", "/shard/status", "", 10.0);
  ASSERT_TRUE(legacy.ok()) << legacy.status().to_string();
  EXPECT_EQ(deprecated.value(), deprecated0 + 1);
  EXPECT_EQ(legacy->code, 200);
  EXPECT_NE(legacy->head.find("Deprecation: true"), std::string::npos) << legacy->head;
  EXPECT_NE(legacy->head.find("</v1/shard/status>; rel=\"successor-version\""),
            std::string::npos)
      << legacy->head;

  // Errors use the one JSON envelope on both spellings.
  auto missing = dist::http_request("127.0.0.1", fleet.port(0), "GET", "/v1/nope", "", 10.0);
  ASSERT_TRUE(missing.ok()) << missing.status().to_string();
  EXPECT_EQ(missing->code, 404);
  EXPECT_NE(missing->body.find("\"error\""), std::string::npos) << missing->body;
  EXPECT_NE(missing->body.find("\"code\""), std::string::npos) << missing->body;
  EXPECT_NE(missing->body.find("not_found"), std::string::npos) << missing->body;
}

// --- The canonical JobSpec codec. -------------------------------------------

TEST(DistCodec, EmitParseEmitIsIdempotent) {
  const api::JobSpec spec = quick_spec();
  const std::string once = api::spec_to_json(spec);
  auto round = api::spec_from_json(once);
  ASSERT_TRUE(round.ok()) << round.status().to_string();
  EXPECT_EQ(api::spec_to_json(*round), once);
}

TEST(DistCodec, InfiniteTimeoutRoundTripsThroughNull) {
  api::JobSpec spec = quick_spec();
  spec.pipeline.synth.timeout_s = std::numeric_limits<double>::infinity();
  const std::string text = api::spec_to_json(spec);
  EXPECT_NE(text.find("\"timeout_s\":null"), std::string::npos) << text;
  auto round = api::spec_from_json(text);
  ASSERT_TRUE(round.ok()) << round.status().to_string();
  EXPECT_TRUE(std::isinf(round->pipeline.synth.timeout_s));
}

TEST(DistCodec, UnknownKeysRejectedNamingTheField) {
  auto spec = api::spec_from_json("{\"traces\":[\"t.csv\"],\"inital_samples\":8}");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().to_string().find("inital_samples"), std::string::npos)
      << spec.status().to_string();
  // A spec stored before the DTW kernel became a process property.
  auto simd = api::spec_from_json("{\"traces\":[\"t.csv\"],\"simd\":\"avx2\"}");
  ASSERT_FALSE(simd.ok());
  EXPECT_EQ(simd.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(simd.status().to_string().find("'simd'"), std::string::npos)
      << simd.status().to_string();
}

// Property-style: randomized specs survive an emit/parse round trip exactly.
TEST(DistCodec, RandomSpecsRoundTripExactly) {
  std::mt19937_64 gen(1234567);
  auto pick_int = [&gen](int lo, int hi) {
    return lo + static_cast<int>(gen() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  for (int trial = 0; trial < 64; ++trial) {
    api::JobSpec s;
    s.name = "trial-" + std::to_string(trial);
    s.trace_paths = {"a.csv", "dir/b.csv"};
    if (trial % 3 == 0) s.pipeline.dsl_override = "reno";
    auto& synth = s.pipeline.synth;
    synth.metric = (gen() & 1) ? distance::Metric::kEuclidean : distance::Metric::kDtw;
    synth.seed = gen();  // full u64 range: must survive the decimal-string wire
    synth.max_iterations = pick_int(1, 12);
    synth.initial_samples = pick_int(1, 64);
    synth.initial_keep = pick_int(1, 9);
    synth.initial_segments = pick_int(1, 16);
    synth.final_validation_segments = static_cast<std::size_t>(pick_int(1, 32));
    synth.sample_growth = pick_int(2, 10);
    synth.exhaustive_cap = static_cast<std::size_t>(pick_int(100, 8000));
    synth.unit_check = (gen() & 1) != 0;
    synth.concretize_budget = pick_int(1, 64);
    synth.max_holes = pick_int(1, 5);
    if (gen() & 1) synth.max_depth = pick_int(2, 6);
    if (gen() & 1) synth.max_nodes = pick_int(3, 12);
    synth.timeout_s = (gen() & 1) ? std::numeric_limits<double>::infinity()
                                  : static_cast<double>(pick_int(1, 600));
    const bool fast = (gen() & 1) != 0;
    synth.use_eval_cache = fast;
    synth.early_abandon = fast;
    if (gen() & 1) {
      synth.checkpoint_path = "ck-" + std::to_string(trial) + ".bin";
      synth.resume = (gen() & 1) != 0;
    }
    s.pipeline.warmup_s = static_cast<double>(pick_int(0, 5));
    s.pipeline.min_segment_samples = static_cast<std::size_t>(pick_int(5, 40));
    s.load.repair = (gen() & 1) != 0;

    const std::string text = api::spec_to_json(s);
    auto round = api::spec_from_json(text);
    ASSERT_TRUE(round.ok()) << trial << ": " << round.status().to_string() << "\n" << text;
    EXPECT_EQ(api::spec_to_json(*round), text) << "trial " << trial;
    EXPECT_EQ(round->pipeline.synth.seed, synth.seed) << "trial " << trial;
    EXPECT_EQ(round->pipeline.synth.initial_keep, synth.initial_keep);
    EXPECT_EQ(round->pipeline.synth.sample_growth, synth.sample_growth);
    EXPECT_EQ(round->pipeline.synth.exhaustive_cap, synth.exhaustive_cap);
    EXPECT_EQ(round->pipeline.synth.unit_check, synth.unit_check);
    EXPECT_EQ(round->pipeline.synth.final_validation_segments,
              synth.final_validation_segments);
  }
}

}  // namespace
}  // namespace abg
