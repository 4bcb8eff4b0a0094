#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "net/simulator.hpp"
#include "obs/registry.hpp"
#include "trace/noise.hpp"
#include "trace/sampler.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/validate.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace abg::trace {
namespace {

Trace make_trace(std::size_t n, const std::vector<std::size_t>& losses = {},
                 const std::vector<std::size_t>& dups = {}) {
  Trace t;
  t.cca_name = "test";
  t.env.bandwidth_bps = 10e6;
  t.env.rtt_s = 0.05;
  for (std::size_t i = 0; i < n; ++i) {
    AckSample s;
    s.sig.now = 0.01 * static_cast<double>(i);
    s.sig.mss = 1448.0;
    s.sig.cwnd = 1448.0 * (10 + static_cast<double>(i % 50));
    s.sig.acked_bytes = 1448.0;
    s.sig.rtt = 0.05;
    s.cwnd_after = s.sig.cwnd + 1448.0;
    s.ack_seq = 1448.0 * static_cast<double>(i);
    s.loss_event = std::find(losses.begin(), losses.end(), i) != losses.end();
    s.is_dup = std::find(dups.begin(), dups.end(), i) != dups.end();
    if (s.is_dup) s.sig.acked_bytes = 0.0;
    t.samples.push_back(s);
  }
  return t;
}

TEST(Trace, SeriesExtraction) {
  auto t = make_trace(5);
  EXPECT_EQ(t.cwnd_series().size(), 5u);
  EXPECT_EQ(t.time_series().size(), 5u);
  EXPECT_DOUBLE_EQ(t.time_series()[2], 0.02);
}

TEST(Trace, EnvironmentLabelIsDescriptive) {
  Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.05;
  env.seed = 3;
  EXPECT_NE(env.label().find("10.0Mbps"), std::string::npos);
  EXPECT_NE(env.label().find("50ms"), std::string::npos);
}

TEST(Segmentation, SplitsAtRecordedLossEvents) {
  auto t = make_trace(100, {30, 60});
  auto segs = segment_trace(t, 5);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].samples.size(), 30u);
  EXPECT_EQ(segs[0].first_index, 0u);
  EXPECT_EQ(segs[1].first_index, 31u);
  EXPECT_EQ(segs[2].first_index, 61u);
}

TEST(Segmentation, DropsShortSegments) {
  auto t = make_trace(100, {3, 60});
  auto segs = segment_trace(t, 20);
  ASSERT_EQ(segs.size(), 2u);  // first 3-sample fragment dropped
}

TEST(Segmentation, NoLossYieldsSingleSegment) {
  auto t = make_trace(50);
  auto segs = segment_trace(t, 5);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].samples.size(), 50u);
}

TEST(Segmentation, InfersLossFromTripleDupAcks) {
  auto t = make_trace(100, /*losses=*/{}, /*dups=*/{40, 41, 42, 43});
  auto events = infer_loss_events(t);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], 42u);  // the third consecutive dup
  auto segs = segment_trace(t, 5, /*use_recorded_events=*/false);
  EXPECT_EQ(segs.size(), 2u);
}

TEST(Segmentation, ShortDupRunsAreNotLosses) {
  auto t = make_trace(100, {}, {40, 41});
  EXPECT_TRUE(infer_loss_events(t).empty());
}

TEST(Segmentation, SegmentAllPoolsAndSkipsFirst) {
  std::vector<Trace> traces = {make_trace(100, {50}), make_trace(100, {50})};
  EXPECT_EQ(segment_all(traces, 5).size(), 4u);
  EXPECT_EQ(segment_all(traces, 5, /*skip_first=*/true).size(), 2u);
}

TEST(Segmentation, SkipFirstKeepsLossFreeTraces) {
  std::vector<Trace> traces = {make_trace(50)};
  EXPECT_EQ(segment_all(traces, 5, /*skip_first=*/true).size(), 1u);
}

TEST(TrimWarmup, DropsEarlySamples) {
  auto t = make_trace(100);  // timestamps 0 .. 0.99
  auto trimmed = trim_warmup(t, 0.5);
  ASSERT_EQ(trimmed.samples.size(), 50u);
  EXPECT_GE(trimmed.samples.front().sig.now, 0.5);
  EXPECT_EQ(trimmed.cca_name, t.cca_name);
}

TEST(Noise, DropProbabilityThinsSamples) {
  auto t = make_trace(2000);
  NoiseConfig cfg;
  cfg.drop_sample_prob = 0.3;
  util::Rng rng(5);
  auto noisy = add_noise(t, cfg, rng);
  EXPECT_LT(noisy.samples.size(), 1600u);
  EXPECT_GT(noisy.samples.size(), 1200u);
}

TEST(Noise, RttJitterStaysPositiveAndBounded) {
  auto t = make_trace(500);
  NoiseConfig cfg;
  cfg.rtt_jitter_frac = 0.2;
  util::Rng rng(5);
  auto noisy = add_noise(t, cfg, rng);
  ASSERT_EQ(noisy.samples.size(), t.samples.size());
  for (std::size_t i = 0; i < noisy.samples.size(); ++i) {
    EXPECT_GT(noisy.samples[i].sig.rtt, 0.0);
    EXPECT_NEAR(noisy.samples[i].sig.rtt, t.samples[i].sig.rtt, 0.05 * 0.2 + 1e-9);
  }
}

TEST(Noise, TimeJitterPreservesMonotonicity) {
  auto t = make_trace(500);
  NoiseConfig cfg;
  cfg.time_jitter_s = 0.02;  // larger than the 10ms sample spacing
  util::Rng rng(5);
  auto noisy = add_noise(t, cfg, rng);
  for (std::size_t i = 1; i < noisy.samples.size(); ++i) {
    EXPECT_GT(noisy.samples[i].sig.now, noisy.samples[i - 1].sig.now);
  }
}

TEST(Noise, ZeroConfigIsIdentity) {
  auto t = make_trace(100);
  util::Rng rng(5);
  auto noisy = add_noise(t, NoiseConfig{}, rng);
  ASSERT_EQ(noisy.samples.size(), t.samples.size());
  EXPECT_DOUBLE_EQ(noisy.samples[50].cwnd_after, t.samples[50].cwnd_after);
}

TEST(TraceIo, CsvRoundTrip) {
  auto t = make_trace(20, {10}, {5});
  t.cca_name = "reno";
  t.env.seed = 77;
  auto parsed = from_csv(to_csv(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->cca_name, "reno");
  EXPECT_EQ(parsed->env.seed, 77u);
  ASSERT_EQ(parsed->samples.size(), t.samples.size());
  EXPECT_DOUBLE_EQ(parsed->samples[7].cwnd_after, t.samples[7].cwnd_after);
  EXPECT_EQ(parsed->samples[10].loss_event, true);
  EXPECT_EQ(parsed->samples[5].is_dup, true);
}

TEST(TraceIo, LongCcaNameRoundTrips) {
  // A name past the old 256-byte metadata buffer cut the environment fields
  // off the header, so the saved file no longer loaded.
  auto t = make_trace(3);
  t.cca_name = std::string(300, 'c');
  t.env.cross_traffic_bps = 3e6;
  auto parsed = from_csv(to_csv(t));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->cca_name, t.cca_name);
  EXPECT_EQ(parsed->env.cross_traffic_bps, 3e6);
}

TEST(TraceIo, RejectsGarbage) {
  auto r = from_csv("not,a,trace\n1,2,3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kParseError);
  EXPECT_FALSE(from_csv("").ok());
}

TEST(TraceIo, FileRoundTrip) {
  auto t = make_trace(10);
  const std::string path = testing::TempDir() + "/abg_trace_test.csv";
  ASSERT_TRUE(save_csv(t, path).is_ok());
  auto loaded = load_csv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->samples.size(), 10u);
}

TEST(TraceIo, MissingFileIsIoError) {
  auto r = load_csv(testing::TempDir() + "/does_not_exist_abg.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kIoError);
  // The context chain names the offending file.
  EXPECT_NE(r.status().message().find("does_not_exist_abg"), std::string::npos);
}

TEST(TraceIo, CorruptedMetadataIsParseError) {
  auto csv = to_csv(make_trace(5));
  const auto pos = csv.find("bw=");
  ASSERT_NE(pos, std::string::npos);
  csv.replace(pos, 4, "bw=?");  // "bw=1..." -> "bw=?..." : unparseable number
  auto r = from_csv(csv);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kParseError);
}

TEST(TraceIo, TruncatedRowRejectedStrictlyDroppedInRepair) {
  auto csv = to_csv(make_trace(6));
  // Chop the file mid-way through the final data row.
  csv.resize(csv.rfind('\n', csv.size() - 2) + 5);
  csv += "\n";
  auto strict = from_csv(csv);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), util::StatusCode::kParseError);

  const auto dropped_before = obs::counter("trace.rows_dropped").value();
  LoadOptions repair;
  repair.repair = true;
  auto repaired = from_csv(csv, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->samples.size(), 5u);
  EXPECT_EQ(obs::counter("trace.rows_dropped").value(), dropped_before + 1);
}

TEST(TraceIo, NonFiniteFieldIsNumericError) {
  auto t = make_trace(5);
  t.samples[2].sig.rtt = std::numeric_limits<double>::quiet_NaN();
  auto r = from_csv(to_csv(t));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kNumericError);
}

TEST(TraceIo, NegativeCwndIsInvalidTrace) {
  auto t = make_trace(5);
  t.samples[3].sig.cwnd = -1448.0;
  auto r = from_csv(to_csv(t));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidTrace);
}

TEST(TraceIo, NonMonotonicTimeRejectedStrictlyDroppedInRepair) {
  auto t = make_trace(6);
  t.samples[4].sig.now = t.samples[1].sig.now;  // clock went backwards
  auto strict = from_csv(to_csv(t));
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), util::StatusCode::kInvalidTrace);

  LoadOptions repair;
  repair.repair = true;
  auto repaired = from_csv(to_csv(t), repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->samples.size(), 5u);
}

TEST(TraceIo, RepairClampsNegativeClampableFields) {
  auto t = make_trace(5);
  t.samples[1].sig.acked_bytes = -100.0;  // clampable, not fatal
  const auto repaired_before = obs::counter("trace.rows_repaired").value();
  LoadOptions repair;
  repair.repair = true;
  auto r = from_csv(to_csv(t), repair);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->samples.size(), 5u);
  EXPECT_DOUBLE_EQ(r->samples[1].sig.acked_bytes, 0.0);
  EXPECT_EQ(obs::counter("trace.rows_repaired").value(), repaired_before + 1);
}

TEST(TraceIo, EmptyAfterRepairIsInvalidTrace) {
  auto t = make_trace(1);
  t.samples[0].sig.cwnd = -1.0;  // the only row is unrepairable
  LoadOptions repair;
  repair.repair = true;
  auto r = from_csv(to_csv(t), repair);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidTrace);
}

TEST(TraceIo, StrayCarriageReturnIsABadField) {
  // Sample 2's rtt field (0.05) becomes "1.0\r5". Only the '\r' of a CRLF
  // line end is markup; this one is field text, so the field is no number
  // (a reader that dropped every '\r' loaded it as 1.05).
  auto csv = to_csv(make_trace(5));
  std::string crlf;
  for (const char c : csv) crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  auto from_crlf = from_csv(crlf);
  ASSERT_TRUE(from_crlf.ok()) << from_crlf.status().to_string();
  EXPECT_EQ(from_crlf->samples.size(), 5u);

  std::size_t line = 0;
  for (int n = 0; n < 4; ++n) line = csv.find('\n', line) + 1;
  std::size_t field = line;
  for (int c = 0; c < 5; ++c) field = csv.find(',', field) + 1;
  ASSERT_EQ(csv.compare(field, 5, "0.05,"), 0);
  csv.replace(field, 4, "1.0\r5");
  auto strict = from_csv(csv);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), util::StatusCode::kParseError);

  const auto dropped_before = obs::counter("trace.rows_dropped").value();
  LoadOptions repair;
  repair.repair = true;
  auto repaired = from_csv(csv, repair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->samples.size(), 4u);
  EXPECT_EQ(obs::counter("trace.rows_dropped").value(), dropped_before + 1);
}

// The serve-smoke trace: 8 s of Reno at 10 Mb/s and 40 ms.
Trace serve_smoke_trace() {
  Environment env;
  env.bandwidth_bps = 10e6;
  env.rtt_s = 0.040;
  env.duration_s = 8.0;
  return net::run_connection("reno", env);
}

std::vector<double> sample_values(const AckSample& s) {
  return {s.sig.now,         s.sig.mss,      s.sig.cwnd,         s.sig.inflight,
          s.sig.acked_bytes, s.sig.rtt,      s.sig.srtt,         s.sig.min_rtt,
          s.sig.max_rtt,     s.sig.ack_rate, s.sig.rtt_gradient, s.sig.time_since_loss,
          s.cwnd_after,      s.ack_seq,      s.is_dup ? 1.0 : 0.0, s.loss_event ? 1.0 : 0.0};
}

// The trace writer that to_csv replaced: snprintf("%.12g") per value and the
// CsvWriter quoting rule on every field.
std::string reference_csv(const Trace& t) {
  auto field = [](const std::string& f) {
    if (f.find_first_of(",\"\n") == std::string::npos) return f;
    std::string q = "\"";
    for (const char c : f) {
      if (c == '"') q += '"';
      q += c;
    }
    return q + '"';
  };
  char meta[256];
  std::snprintf(meta, sizeof(meta),
                "#cca=%s bw=%.17g rtt=%.17g buf=%.17g loss=%.17g seed=%llu dur=%.17g xt=%.17g",
                t.cca_name.c_str(), t.env.bandwidth_bps, t.env.rtt_s, t.env.buffer_bytes,
                t.env.random_loss, static_cast<unsigned long long>(t.env.seed),
                t.env.duration_s, t.env.cross_traffic_bps);
  std::string out = field(meta) + "\n";
  out += field("now,mss,cwnd,inflight,acked_bytes,rtt,srtt,min_rtt,max_rtt,ack_rate,"
               "rtt_gradient,time_since_loss,cwnd_after,ack_seq,is_dup,loss_event") +
         "\n";
  for (const auto& s : t.samples) {
    const auto values = sample_values(s);
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.12g", values[i]);
      out += (i > 0 ? "," : "") + field(buf);
    }
    out += "\n";
  }
  return out;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

TEST(TraceIo, CsvBytesMatchPrintfReference) {
  // The serve-smoke trace and Reno in the three §6.1 environments (clean,
  // 0.2% random loss, 30% cross traffic).
  std::vector<Trace> traces{serve_smoke_trace()};
  auto envs = net::default_environments(3, 101);
  for (auto& e : envs) e.duration_s = 15.0;
  envs[1].random_loss = 0.002;
  envs[2].cross_traffic_bps = 0.3 * envs[2].bandwidth_bps;
  for (auto& t : net::collect_traces("reno", envs)) traces.push_back(std::move(t));

  const std::string path = testing::TempDir() + "/abg_trace_bytes.csv";
  for (const auto& t : traces) {
    const std::string want = reference_csv(t);
    ASSERT_EQ(to_csv(t), want) << t.env.label();
    ASSERT_TRUE(save_csv(t, path).is_ok());
    auto loaded = load_csv(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    ASSERT_EQ(loaded->samples.size(), t.samples.size());
    EXPECT_EQ(loaded->cca_name, t.cca_name);
    EXPECT_EQ(bits_of(loaded->env.bandwidth_bps), bits_of(t.env.bandwidth_bps));
    EXPECT_EQ(bits_of(loaded->env.cross_traffic_bps), bits_of(t.env.cross_traffic_bps));
    // Each loaded value has the bits strtod gives for the written text.
    for (std::size_t i = 0; i < t.samples.size(); ++i) {
      const auto got = sample_values(loaded->samples[i]);
      const auto written = sample_values(t.samples[i]);
      for (std::size_t c = 0; c < got.size(); ++c) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g", written[c]);
        ASSERT_EQ(bits_of(got[c]), bits_of(std::strtod(buf, nullptr)))
            << "sample " << i << " column " << c;
      }
    }
  }
  std::remove(path.c_str());
}

// Truncation, bit flips and stray ',' '"' '\r' '\n' in the serve-smoke CSV:
// every mutant either loads with finite samples or ends in a classified
// error, in strict and in repair mode alike.
TEST(TraceIo, MutatedCsvEndsInClassifiedError) {
  const std::string csv = to_csv(serve_smoke_trace());
  util::Rng rng(23);
  const char inserts[] = {',', '"', '\r', '\n'};
  int loaded = 0;
  for (int m = 0; m < 2000; ++m) {
    std::string mutant = csv;
    for (int k = 1 + static_cast<int>(rng.next_u64() % 3); k > 0 && !mutant.empty(); --k) {
      const std::size_t at = rng.next_u64() % mutant.size();
      switch (rng.next_u64() % 3) {
        case 0:
          mutant.resize(at);
          break;
        case 1:
          mutant[at] = static_cast<char>(mutant[at] ^ (1 << (rng.next_u64() % 8)));
          break;
        default:
          mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(at),
                        inserts[rng.next_u64() % sizeof(inserts)]);
      }
    }
    LoadOptions opts;
    opts.repair = m % 2 == 1;
    auto r = from_csv(mutant, opts);
    if (!r.ok()) {
      const auto code = r.status().code();
      ASSERT_TRUE(code == util::StatusCode::kParseError ||
                  code == util::StatusCode::kInvalidTrace)
          << "mutant " << m << ": " << r.status().to_string();
      continue;
    }
    ++loaded;
    for (const auto& s : r->samples) {
      for (const double v : sample_values(s)) ASSERT_TRUE(std::isfinite(v)) << "mutant " << m;
    }
  }
  // Repair mode drops a damaged row, so some mutants must still load.
  EXPECT_GT(loaded, 0);
}

TEST(Validate, RejectsBadEnvironment) {
  auto t = make_trace(5);
  t.env.random_loss = 1.5;  // probabilities live in [0, 1]
  auto st = validate_trace(t);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidTrace);
}

double mean_cwnd(const Segment& s) {
  double sum = 0;
  for (const auto& x : s.samples) sum += x.cwnd_after;
  return sum / static_cast<double>(s.samples.size());
}

TEST(Sampler, SelectsRequestedCount) {
  std::vector<Trace> traces = {make_trace(300, {50, 100, 150, 200, 250})};
  auto segs = segment_all(traces, 10);
  ASSERT_GE(segs.size(), 5u);
  auto dist = [](const Segment& a, const Segment& b) {
    return std::fabs(mean_cwnd(a) - mean_cwnd(b));
  };
  util::Rng rng(1);
  auto sel = select_diverse_segments(segs, 4, dist, rng);
  EXPECT_EQ(sel.size(), 4u);
  std::set<std::size_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(Sampler, CapsAtPoolSize) {
  std::vector<Trace> traces = {make_trace(100, {50})};
  auto segs = segment_all(traces, 10);
  auto dist = [](const Segment&, const Segment&) { return 1.0; };
  util::Rng rng(1);
  EXPECT_EQ(select_diverse_segments(segs, 50, dist, rng).size(), segs.size());
}

TEST(Sampler, GrowIsIncremental) {
  std::vector<Trace> traces = {make_trace(400, {50, 100, 150, 200, 250, 300, 350})};
  auto segs = segment_all(traces, 10);
  auto dist = [](const Segment& a, const Segment& b) {
    return std::fabs(mean_cwnd(a) - mean_cwnd(b));
  };
  SegmentSampler sampler(&segs, dist, 9);
  sampler.grow_to(2);
  auto first = sampler.selected();
  sampler.grow_to(4);
  auto second = sampler.selected();
  ASSERT_EQ(second.size(), 4u);
  // The first two picks are preserved.
  EXPECT_EQ(std::vector<std::size_t>(second.begin(), second.begin() + 2), first);
}

TEST(Sampler, SecondPickIsFarthestFromFirst) {
  // Segments with means 10, 11, 12, ..., plus one extreme outlier.
  std::vector<Segment> segs;
  for (int i = 0; i < 6; ++i) {
    Segment s;
    for (int j = 0; j < 5; ++j) {
      AckSample a;
      a.cwnd_after = (i == 5 ? 1000.0 : 10.0 + i);
      s.samples.push_back(a);
    }
    segs.push_back(std::move(s));
  }
  auto dist = [](const Segment& a, const Segment& b) {
    return std::fabs(mean_cwnd(a) - mean_cwnd(b));
  };
  util::Rng rng(2);
  auto sel = select_diverse_segments(segs, 2, dist, rng);
  ASSERT_EQ(sel.size(), 2u);
  // Whatever the random first pick was, the greedy second pick must be the
  // outlier (or the random pick itself was the outlier and the farthest is
  // any normal one).
  const bool outlier_in = sel[0] == 5 || sel[1] == 5;
  EXPECT_TRUE(outlier_in);
}

}  // namespace
}  // namespace abg::trace
