#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "net/simulator.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace abg::net {
namespace {

trace::Environment quick_env(std::uint64_t seed = 1) {
  trace::Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.04;
  env.duration_s = 6.0;
  env.seed = seed;
  return env;
}

TEST(Simulator, DefaultEnvironmentsSpanPaperRanges) {
  const auto envs = default_environments(6, 1);
  ASSERT_EQ(envs.size(), 6u);
  for (const auto& e : envs) {
    EXPECT_GE(e.rtt_s, 0.010);
    EXPECT_LE(e.rtt_s, 0.100);
    EXPECT_GE(e.bandwidth_bps, 5e6);
    EXPECT_LE(e.bandwidth_bps, 15e6);
  }
  EXPECT_NE(envs.front().rtt_s, envs.back().rtt_s);
}

TEST(Simulator, DeterministicForSameSeed) {
  auto a = run_connection("reno", quick_env(5));
  auto b = run_connection("reno", quick_env(5));
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); i += 97) {
    EXPECT_DOUBLE_EQ(a.samples[i].cwnd_after, b.samples[i].cwnd_after);
  }
}

TEST(Simulator, DifferentEnvironmentsProduceDifferentTraces) {
  auto a = run_connection("reno", quick_env(5));
  auto env2 = quick_env(5);
  env2.rtt_s = 0.09;
  auto b = run_connection("reno", env2);
  EXPECT_NE(a.samples.size(), b.samples.size());
}

// Parameterized sanity sweep over every registered CCA.
class SimulatesEveryCca : public ::testing::TestWithParam<std::string> {};

TEST_P(SimulatesEveryCca, ProducesSaneTrace) {
  auto t = run_connection(GetParam(), quick_env(3));
  ASSERT_GT(t.samples.size(), 100u) << GetParam();
  EXPECT_EQ(t.cca_name, GetParam());

  double prev_time = -1.0;
  for (const auto& s : t.samples) {
    EXPECT_GE(s.sig.now, prev_time);          // time monotone
    prev_time = s.sig.now;
    EXPECT_GE(s.cwnd_after, 1448.0);          // window at least 1 MSS
    EXPECT_TRUE(std::isfinite(s.cwnd_after));
    EXPECT_GE(s.sig.min_rtt, 0.0);
    EXPECT_LE(s.sig.min_rtt, s.sig.max_rtt + 1e-12);
  }
  // RTT floor: propagation + serialization.
  const auto& last = t.samples.back();
  EXPECT_GE(last.sig.min_rtt, quick_env().rtt_s * 0.99);
  EXPECT_LT(last.sig.min_rtt, quick_env().rtt_s * 2.0);
}

TEST_P(SimulatesEveryCca, AchievesSomeUtilization) {
  auto t = run_connection(GetParam(), quick_env(3));
  // Delivered bytes = final cumulative ACK; require at least 5% of capacity
  // (even student4's two-packet window beats this on a 40 ms RTT).
  const double delivered = t.samples.back().ack_seq;
  const double capacity = quick_env().bandwidth_bps / 8.0 * quick_env().duration_s;
  EXPECT_GT(delivered, 0.04 * capacity) << GetParam();
  EXPECT_LT(delivered, 1.05 * capacity) << GetParam();  // no faster than the link
}

INSTANTIATE_TEST_SUITE_P(AllCcas, SimulatesEveryCca,
                         ::testing::ValuesIn(cca::all_cca_names()),
                         [](const auto& info) { return info.param; });

TEST(Simulator, LossBasedCcasSeeLossesAndHalve) {
  auto t = run_connection("reno", quick_env(7));
  int losses = 0;
  for (const auto& s : t.samples) losses += s.loss_event;
  EXPECT_GT(losses, 2);
  // Find a loss sample and check the window fell.
  for (std::size_t i = 1; i < t.samples.size(); ++i) {
    if (t.samples[i].loss_event) {
      EXPECT_LT(t.samples[i].cwnd_after, t.samples[i - 1].cwnd_after);
      break;
    }
  }
}

TEST(Simulator, VegasConvergesWithoutLosses) {
  trace::Environment env = quick_env(2);
  env.duration_s = 10.0;
  auto t = run_connection("vegas", env);
  int losses = 0;
  for (const auto& s : t.samples) losses += s.loss_event;
  EXPECT_EQ(losses, 0);
  // Steady state: the last quarter of the trace barely moves.
  const auto series = t.cwnd_series();
  const double last = series.back();
  for (std::size_t i = series.size() * 3 / 4; i < series.size(); ++i) {
    EXPECT_NEAR(series[i], last, 3 * 1448.0);
  }
}

TEST(Simulator, RenoSawtoothOscillatesBetweenHalfAndFullBuffer) {
  trace::Environment env = quick_env(4);
  env.duration_s = 15.0;
  auto t = run_connection("reno", env);
  auto trimmed = trace::trim_warmup(t, 5.0);
  double lo = 1e18, hi = 0;
  for (const auto& s : trimmed.samples) {
    lo = std::min(lo, s.cwnd_after);
    hi = std::max(hi, s.cwnd_after);
  }
  // BDP = 10 Mb/s * 40 ms = 34.5 pkts; peak ~ 2 BDP, trough ~ peak / 2.
  EXPECT_GT(hi / lo, 1.5);
  EXPECT_LT(hi / lo, 4.0);
  EXPECT_NEAR(hi / 1448.0, 69.0, 25.0);
}

TEST(Simulator, RandomLossEnvironmentCausesMoreLossEvents) {
  auto clean = run_connection("reno", quick_env(9));
  auto env = quick_env(9);
  env.random_loss = 0.005;
  auto lossy = run_connection("reno", env);
  auto count = [](const trace::Trace& t) {
    int n = 0;
    for (const auto& s : t.samples) n += s.loss_event;
    return n;
  };
  EXPECT_GT(count(lossy), count(clean));
}

TEST(Simulator, DupAcksAreRecordedAroundLosses) {
  auto t = run_connection("reno", quick_env(3));
  int dups = 0;
  for (const auto& s : t.samples) dups += s.is_dup;
  EXPECT_GT(dups, 0);
  // Loss inference from dup-ACK runs should roughly match recorded events.
  const auto inferred = trace::infer_loss_events(t);
  int recorded = 0;
  for (const auto& s : t.samples) recorded += s.loss_event;
  EXPECT_GE(static_cast<int>(inferred.size()), recorded / 2);
}

TEST(Simulator, SignalsAreInternallyConsistent) {
  auto t = run_connection("cubic", quick_env(5));
  for (const auto& s : t.samples) {
    if (s.sig.acked_bytes > 0) {
      EXPECT_GE(s.sig.acked_bytes, 1448.0 * 0.99);
    }
    EXPECT_GE(s.sig.time_since_loss, 0.0);
    if (s.sig.ack_rate > 0) {
      EXPECT_LT(s.sig.ack_rate, 2.5 * quick_env().bandwidth_bps / 8.0);
    }
  }
}

TEST(Simulator, CollectTracesReturnsOnePerEnvironment) {
  auto envs = default_environments(3, 11);
  for (auto& e : envs) e.duration_s = 3.0;
  auto traces = collect_traces("reno", envs);
  ASSERT_EQ(traces.size(), 3u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].env.seed, envs[i].seed);
    EXPECT_FALSE(traces[i].empty());
  }
}

TEST(Simulator, WmaxSignalTracksWindowAtLoss) {
  auto t = run_connection("cubic", quick_env(6));
  double last_loss_cwnd = 0.0;
  for (const auto& s : t.samples) {
    if (s.loss_event) {
      last_loss_cwnd = s.sig.cwnd;  // window before the cut
    } else if (last_loss_cwnd > 0 && s.sig.acked_bytes > 0) {
      EXPECT_NEAR(s.sig.cwnd_at_loss, last_loss_cwnd, 1.0);
    }
  }
}

// After an RTO's go-back-N resend, ACKs for segments sent before the timeout
// used to carry the cumulative ACK past the send frontier, and in-flight
// went negative (-43,440 B at sample 395 of this lossy Cubic trace). The
// strict loader then rejected a trace the simulator itself wrote.
TEST(Simulator, LossyCubicTraceHasNoNegativeCoreFieldAndLoadsStrictly) {
  auto env = default_environments(3, 101)[1];
  env.duration_s = 15.0;
  env.random_loss = 0.002;
  ASSERT_EQ(env.seed, 102u);
  const auto t = run_connection("cubic", env);
  ASSERT_GT(t.samples.size(), 395u);
  for (std::size_t i = 0; i < t.samples.size(); ++i) {
    const auto& s = t.samples[i];
    ASSERT_GE(s.sig.inflight, 0.0) << "sample " << i;
    ASSERT_GE(s.sig.cwnd, 0.0) << "sample " << i;
    ASSERT_GE(s.cwnd_after, 0.0) << "sample " << i;
    ASSERT_GE(s.sig.acked_bytes, 0.0) << "sample " << i;
  }
  const std::string path = testing::TempDir() + "abg_lossy_cubic.csv";
  ASSERT_TRUE(trace::save_csv(t, path).is_ok());
  auto loaded = trace::load_csv(path);  // strict: no repair
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->samples.size(), t.samples.size());
}

}  // namespace
}  // namespace abg::net
