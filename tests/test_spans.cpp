// Span-layer tests (ISSUE 5): explicit context propagation, span/parent id
// chains, per-lane (Perfetto pid) attribution, and the work-stealing pool's
// enqueue-time context capture. The exported Chrome trace is inspected
// structurally with util::parse_json — not just validated — so the tests
// prove every span id resolves and every event lands on a registered lane.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "obs/span.hpp"
#include "obs/trace_events.hpp"
#include "util/json_parse.hpp"
#include "util/thread_pool.hpp"

namespace abg {
namespace {

struct ParsedEvent {
  std::string name;
  std::string ph;
  std::uint32_t pid = 0;
  std::uint64_t span = 0;    // 0 when the event has no span id
  std::uint64_t parent = 0;  // 0 = root
  std::string lane_name;     // metadata events only
};

// Parse trace_events_json() into a flat event list; fails the test on any
// structural surprise.
std::vector<ParsedEvent> parse_trace() {
  const std::string json = obs::trace_events_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  auto doc = util::parse_json(json);
  EXPECT_TRUE(doc.ok()) << doc.status().to_string();
  std::vector<ParsedEvent> out;
  const util::JsonValue* events = doc->find("traceEvents");
  if (events == nullptr) {
    ADD_FAILURE() << "no traceEvents array";
    return out;
  }
  for (const auto& e : events->items()) {
    ParsedEvent p;
    p.name = e.find("name") ? e.find("name")->as_string() : "";
    p.ph = e.find("ph") ? e.find("ph")->as_string() : "";
    p.pid = e.find("pid") ? static_cast<std::uint32_t>(e.find("pid")->as_int()) : 0;
    if (const util::JsonValue* args = e.find("args")) {
      if (const util::JsonValue* s = args->find("span")) {
        p.span = static_cast<std::uint64_t>(s->as_int());
      }
      if (const util::JsonValue* par = args->find("parent")) {
        p.parent = static_cast<std::uint64_t>(par->as_int());
      }
      if (p.ph == "M" && args->find("name")) {
        p.lane_name = args->find("name")->as_string();
      }
    }
    out.push_back(std::move(p));
  }
  return out;
}

class SpansTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::clear_trace_events();
    obs::set_tracing_enabled(true);
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::clear_trace_events();
  }
};

TEST_F(SpansTest, ContextScopeInstallsAndRestores) {
  const obs::SpanContext before = obs::current_context();
  {
    obs::ContextScope scope(obs::SpanContext{7, 42});
    EXPECT_EQ(obs::current_context().lane, 7u);
    EXPECT_EQ(obs::current_context().span, 42u);
    {
      obs::ContextScope nested(obs::SpanContext{9, 0});
      EXPECT_EQ(obs::current_context().lane, 9u);
    }
    EXPECT_EQ(obs::current_context().lane, 7u);
    EXPECT_EQ(obs::current_context().span, 42u);
  }
  EXPECT_EQ(obs::current_context().lane, before.lane);
  EXPECT_EQ(obs::current_context().span, before.span);
}

TEST_F(SpansTest, DisarmedSpanHasIdZeroAndRecordsNothing) {
  obs::set_tracing_enabled(false);
  obs::Span span("ignored", "test");
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST_F(SpansTest, NestedSpansFormAParentChain) {
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    obs::Span outer("outer", "test");
    outer_id = outer.id();
    EXPECT_EQ(obs::current_context().span, outer_id);
    {
      obs::Span inner("inner", "test");
      inner_id = inner.id();
      EXPECT_NE(inner_id, outer_id);
      EXPECT_EQ(obs::current_context().span, inner_id);
    }
    EXPECT_EQ(obs::current_context().span, outer_id);
  }
  EXPECT_EQ(obs::current_context().span, 0u);

  std::map<std::string, ParsedEvent> by_name;
  for (const auto& e : parse_trace()) {
    if (e.ph == "X") by_name[e.name] = e;
  }
  ASSERT_TRUE(by_name.count("outer"));
  ASSERT_TRUE(by_name.count("inner"));
  EXPECT_EQ(by_name["outer"].span, outer_id);
  EXPECT_EQ(by_name["outer"].parent, 0u);
  EXPECT_EQ(by_name["inner"].span, inner_id);
  EXPECT_EQ(by_name["inner"].parent, outer_id);
  // No registered lanes: everything is on the default process lane (pid 1).
  EXPECT_EQ(by_name["outer"].pid, 1u);
  EXPECT_EQ(by_name["inner"].pid, 1u);
}

TEST_F(SpansTest, UserArgsSurviveTheIdMerge) {
  { obs::Span span("with_args", "test", "{\"iter\":3,\"n\":16}"); }
  const std::string json = obs::trace_events_json();
  EXPECT_NE(json.find("\"span\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"iter\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"n\":16"), std::string::npos) << json;
}

TEST_F(SpansTest, RegisteredLanesGetMetadataAndEventsCarryTheirPid) {
  const std::uint32_t lane_a = obs::register_lane("job reno");
  const std::uint32_t lane_b = obs::register_lane("job cubic");
  EXPECT_NE(lane_a, lane_b);
  EXPECT_GE(lane_a, 2u);  // pid 1 is the process lane
  {
    obs::ContextScope scope(obs::SpanContext{lane_a, 0});
    obs::Span span("work a", "test");
  }
  {
    obs::ContextScope scope(obs::SpanContext{lane_b, 0});
    obs::Span span("work b", "test");
  }
  { obs::Span span("work main", "test"); }

  std::map<std::string, std::uint32_t> lane_pids;  // metadata name -> pid
  std::map<std::string, ParsedEvent> by_name;
  for (const auto& e : parse_trace()) {
    if (e.ph == "M") lane_pids[e.lane_name] = e.pid;
    if (e.ph == "X") by_name[e.name] = e;
  }
  ASSERT_TRUE(lane_pids.count("abagnale"));
  ASSERT_TRUE(lane_pids.count("job reno"));
  ASSERT_TRUE(lane_pids.count("job cubic"));
  EXPECT_EQ(lane_pids["abagnale"], 1u);
  EXPECT_EQ(by_name.at("work a").pid, lane_pids["job reno"]);
  EXPECT_EQ(by_name.at("work b").pid, lane_pids["job cubic"]);
  EXPECT_EQ(by_name.at("work main").pid, 1u);
  EXPECT_EQ(by_name.at("work a").pid, lane_a);
  EXPECT_EQ(by_name.at("work b").pid, lane_b);
}

// Lane pids are monotonic across clear_trace_events(): a job still holding a
// pre-clear lane id keeps emitting on its own (now unnamed) lane instead of
// aliasing whatever lane gets registered next.
TEST_F(SpansTest, LanePidsAreNotReusedAcrossClear) {
  const std::uint32_t stale = obs::register_lane("job old");
  obs::clear_trace_events();
  const std::uint32_t fresh = obs::register_lane("job new");
  EXPECT_NE(stale, fresh);

  obs::trace_complete_event_on(stale, "stale work", "test", 0.0, 1.0);
  obs::trace_complete_event_on(fresh, "fresh work", "test", 0.0, 1.0);

  std::map<std::string, std::uint32_t> lane_pids;  // metadata name -> pid
  std::map<std::string, ParsedEvent> by_name;
  for (const auto& e : parse_trace()) {
    if (e.ph == "M") lane_pids[e.lane_name] = e.pid;
    if (e.ph == "X") by_name[e.name] = e;
  }
  ASSERT_TRUE(by_name.count("stale work"));
  ASSERT_TRUE(by_name.count("fresh work"));
  EXPECT_EQ(by_name["stale work"].pid, stale);
  EXPECT_EQ(by_name["fresh work"].pid, fresh);
  // The clear dropped the old lane's name; only the new lane is named, and
  // under its own pid.
  EXPECT_FALSE(lane_pids.count("job old"));
  ASSERT_TRUE(lane_pids.count("job new"));
  EXPECT_EQ(lane_pids["job new"], fresh);
}

// The core propagation guarantee: the pool captures the submitter's context
// at enqueue time and installs it in whichever worker runs the task, so
// stolen tasks attribute to the submitting job's lane — never to whatever
// the worker was doing before.
TEST_F(SpansTest, PoolTasksRunOnTheSubmittersLane) {
  const std::uint32_t lane = obs::register_lane("job pool-test");
  std::uint64_t root_id = 0;
  {
    // Scoped so the pool joins before the export is parsed: a task's future
    // is ready before its worker closes the enclosing pool.task span.
    util::ThreadPool pool(3);
    obs::ContextScope scope(obs::SpanContext{lane, 0});
    obs::Span root("job pool-test", "api");
    root_id = root.id();
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([] { obs::Span span("task.work", "test"); }));
    }
    for (auto& f : futures) f.get();
  }

  std::map<std::uint64_t, ParsedEvent> by_span;
  std::vector<ParsedEvent> task_events;
  for (const auto& e : parse_trace()) {
    if (e.ph != "X") continue;
    if (e.span != 0) by_span[e.span] = e;
    if (e.name == "task.work") task_events.push_back(e);
  }
  ASSERT_EQ(task_events.size(), 16u);
  for (const auto& e : task_events) {
    EXPECT_EQ(e.pid, lane) << "task ran on the wrong lane";
    // Each task.work is enclosed by the worker's pool.task span, which in
    // turn parents to the submitting root span.
    ASSERT_TRUE(by_span.count(e.parent)) << "unresolvable parent id " << e.parent;
    const ParsedEvent& pool_span = by_span.at(e.parent);
    EXPECT_EQ(pool_span.name, "pool.task");
    EXPECT_EQ(pool_span.pid, lane);
    EXPECT_EQ(pool_span.parent, root_id);
  }
}

// Satellite (ISSUE 5): concurrent batch jobs — several threads, each with
// its own lane, emitting overlapping span trees through one shared pool.
// The export must stay well-formed, every span id must be unique, every
// parent id must resolve, and every event must sit on a registered lane.
TEST_F(SpansTest, ConcurrentLanesExportWellFormedResolvableTrace) {
  constexpr int kJobs = 4;
  constexpr int kSpansPerJob = 25;
  std::vector<std::uint32_t> lanes;
  for (int j = 0; j < kJobs; ++j) {
    lanes.push_back(obs::register_lane("job j" + std::to_string(j)));
  }
  std::vector<std::thread> threads;
  for (int j = 0; j < kJobs; ++j) {
    threads.emplace_back([lane = lanes[static_cast<std::size_t>(j)], j] {
      obs::ContextScope scope(obs::SpanContext{lane, 0});
      obs::Span root("job j" + std::to_string(j), "api");
      for (int i = 0; i < kSpansPerJob; ++i) {
        obs::Span iter("iter", "synth", "{\"i\":" + std::to_string(i) + "}");
        obs::Span inner("score", "synth");
        obs::trace_instant_event("mark", "synth");
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto events = parse_trace();
  std::set<std::uint32_t> known_pids{1};
  for (const auto& e : events) {
    if (e.ph == "M") known_pids.insert(e.pid);
  }
  std::set<std::uint64_t> span_ids;
  for (const auto& e : events) {
    if (e.ph == "M") continue;
    EXPECT_TRUE(known_pids.count(e.pid)) << "event on unregistered lane pid " << e.pid;
    if (e.ph == "X") {
      EXPECT_NE(e.span, 0u) << "complete event without a span id: " << e.name;
      EXPECT_TRUE(span_ids.insert(e.span).second) << "duplicate span id " << e.span;
    }
  }
  // Every parent id (except root 0) resolves to a recorded span.
  for (const auto& e : events) {
    if (e.ph == "X" && e.parent != 0) {
      EXPECT_TRUE(span_ids.count(e.parent)) << "dangling parent " << e.parent;
    }
  }
  // Each job's lane carries exactly its own spans: 1 root + 2 per iteration.
  for (int j = 0; j < kJobs; ++j) {
    const auto lane = lanes[static_cast<std::size_t>(j)];
    std::size_t n = 0;
    for (const auto& e : events) {
      if (e.ph == "X" && e.pid == lane) ++n;
    }
    EXPECT_EQ(n, 1u + 2u * kSpansPerJob);
  }
}

}  // namespace
}  // namespace abg
