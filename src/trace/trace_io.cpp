#include "trace/trace_io.hpp"

#include <cstdio>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "util/csv.hpp"
#include "util/fault_injection.hpp"

namespace abg::trace {

namespace {

using util::Result;
using util::Status;
using util::StatusCode;

constexpr const char* kColumns =
    "now,mss,cwnd,inflight,acked_bytes,rtt,srtt,min_rtt,max_rtt,ack_rate,rtt_gradient,"
    "time_since_loss,cwnd_after,ack_seq,is_dup,loss_event";
constexpr std::size_t kNumColumns = 16;

Status parse_error(const char* what, const std::string& field) {
  return Status(StatusCode::kParseError, std::string(what) + " '" + field + "'");
}

Status row_error(std::size_t row, const char* what, const std::string& field) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "row %zu: ", row);
  return Status(StatusCode::kParseError, buf + std::string(what) + " '" + field + "'");
}

}  // namespace

std::string to_csv(const Trace& trace) {
  std::string out;
  // About 150 bytes per sample row; the string grows past this if needed.
  out.reserve(512 + 160 * trace.samples.size());
  {
    // The name goes in unbounded; the numbers fit the buffer (seven at most
    // 24 characters each, plus their keys).
    char env[256];
    std::snprintf(env, sizeof(env),
                  " bw=%.17g rtt=%.17g buf=%.17g loss=%.17g seed=%llu dur=%.17g xt=%.17g",
                  trace.env.bandwidth_bps, trace.env.rtt_s, trace.env.buffer_bytes,
                  trace.env.random_loss, static_cast<unsigned long long>(trace.env.seed),
                  trace.env.duration_s, trace.env.cross_traffic_bps);
    util::append_field(&out, "#cca=" + trace.cca_name + env);
    out += '\n';
  }
  util::append_field(&out, kColumns);
  out += '\n';
  for (const auto& s : trace.samples) {
    const double row[kNumColumns] = {
        s.sig.now,          s.sig.mss,        s.sig.cwnd,         s.sig.inflight,
        s.sig.acked_bytes,  s.sig.rtt,        s.sig.srtt,         s.sig.min_rtt,
        s.sig.max_rtt,      s.sig.ack_rate,   s.sig.rtt_gradient, s.sig.time_since_loss,
        s.cwnd_after,       s.ack_seq,        s.is_dup ? 1.0 : 0.0, s.loss_event ? 1.0 : 0.0};
    for (std::size_t c = 0; c < kNumColumns; ++c) {
      if (c > 0) out += ',';
      util::append_number(&out, row[c]);
    }
    out += '\n';
  }
  return out;
}

util::Result<Trace> from_csv(std::string_view csv, const LoadOptions& opts) {
  util::CsvReader reader(csv);
  std::vector<std::string_view> r;
  std::string meta;
  if (reader.next_row(&r)) meta = r[0];
  if (meta.empty() || meta[0] != '#' || !reader.next_row(&r)) {
    return Status(StatusCode::kParseError, "missing '#cca=...' metadata header");
  }
  Trace t;
  {
    // Parse "#cca=NAME bw=... rtt=... buf=... loss=... seed=... dur=... xt=...".
    // Every field written by to_csv must be present and parse cleanly — a
    // corrupted header used to fabricate bw=0 via atof; now it is rejected.
    auto field = [&meta](const std::string& key) -> std::optional<std::string> {
      const auto pos = meta.find(key + "=");
      if (pos == std::string::npos) return std::nullopt;
      const auto start = pos + key.size() + 1;
      const auto end = meta.find(' ', start);
      return meta.substr(start, end == std::string::npos ? std::string::npos : end - start);
    };
    auto num = [&field](const std::string& key, double* out) -> Status {
      const auto f = field(key);
      if (!f) return Status(StatusCode::kParseError, "metadata missing field '" + key + "'");
      if (!util::parse_double(*f, out)) {
        return parse_error(("metadata " + key + ": bad number").c_str(), *f);
      }
      return Status::ok();
    };
    const auto cca = field("cca");
    if (!cca || cca->empty()) {
      return Status(StatusCode::kParseError, "metadata missing field 'cca'");
    }
    t.cca_name = *cca;
    for (const auto& [key, dst] : std::initializer_list<std::pair<const char*, double*>>{
             {"bw", &t.env.bandwidth_bps},
             {"rtt", &t.env.rtt_s},
             {"buf", &t.env.buffer_bytes},
             {"loss", &t.env.random_loss},
             {"dur", &t.env.duration_s},
             {"xt", &t.env.cross_traffic_bps}}) {
      if (auto st = num(key, dst); !st.is_ok()) return st;
    }
    const auto seed = field("seed");
    if (!seed || !util::parse_u64(*seed, &t.env.seed)) {
      return parse_error("metadata seed: bad integer", seed ? *seed : "");
    }
  }
  // The column-name row is written as one quoted field; it must match the
  // current schema exactly.
  if (r.size() != 1 || r[0] != kColumns) {
    return Status(StatusCode::kParseError, "column header mismatch (corrupted file?)");
  }
  ValidateStats stats;
  static auto& c_dropped = obs::counter("trace.rows_dropped");
  for (std::size_t i = 2; reader.next_row(&r); ++i) {
    if (r.size() != kNumColumns) {
      if (opts.repair) {
        ++stats.rows_dropped;
        c_dropped.add();
        continue;
      }
      char buf[96];
      std::snprintf(buf, sizeof(buf), "row %zu: %zu fields (want %zu) — truncated?", i, r.size(),
                    kNumColumns);
      return Status(StatusCode::kParseError, buf);
    }
    AckSample s;
    double flags[2] = {0.0, 0.0};
    double* const dests[kNumColumns] = {
        &s.sig.now,      &s.sig.mss,          &s.sig.cwnd,    &s.sig.inflight,
        &s.sig.acked_bytes, &s.sig.rtt,       &s.sig.srtt,    &s.sig.min_rtt,
        &s.sig.max_rtt,  &s.sig.ack_rate,     &s.sig.rtt_gradient, &s.sig.time_since_loss,
        &s.cwnd_after,   &s.ack_seq,          &flags[0],      &flags[1]};
    bool bad = false;
    for (std::size_t c = 0; c < kNumColumns; ++c) {
      if (!util::parse_double(r[c], dests[c])) {
        if (!opts.repair) return row_error(i, "bad numeric field", std::string(r[c]));
        bad = true;
        break;
      }
    }
    if (bad) {
      ++stats.rows_dropped;
      c_dropped.add();
      continue;
    }
    s.is_dup = flags[0] != 0.0;
    s.loss_event = flags[1] != 0.0;
    t.samples.push_back(s);
  }
  ValidateOptions vopts;
  vopts.repair = opts.repair;
  if (auto st = validate_trace(t, vopts, &stats); !st.is_ok()) return st;
  return t;
}

util::Status save_csv(const Trace& trace, const std::string& path) {
  if (util::fault::io_fail("trace_io.save_csv")) {
    return Status(StatusCode::kIoError, "injected I/O fault writing " + path);
  }
  const std::string body = to_csv(trace);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status(StatusCode::kIoError, "cannot open " + path + " for writing");
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) return Status(StatusCode::kIoError, "short write to " + path);
  return Status::ok();
}

util::Result<Trace> load_csv(const std::string& path, const LoadOptions& opts) {
  if (util::fault::io_fail("trace_io.load_csv")) {
    return Status(StatusCode::kIoError, "injected I/O fault reading " + path);
  }
  std::string content;
  if (!util::read_file(path, &content)) {
    return Status(StatusCode::kIoError, "cannot read " + path);
  }
  return from_csv(content, opts).with_context(path);
}

}  // namespace abg::trace
