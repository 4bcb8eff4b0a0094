#include "net/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace abg::net {

namespace {

// Sender-side connection state machine. Sequence numbers count MSS-sized
// segments; window arithmetic is in bytes.
class Connection {
 public:
  Connection(cca::CcaInterface& cca, const trace::Environment& env, const SimOptions& opts)
      : cca_(cca),
        opts_(opts),
        env_(env),
        rng_(env.seed),
        data_link_(env.bandwidth_bps, env.rtt_s / 2.0, effective_buffer(env), env.random_loss),
        ack_link_(std::max(env.bandwidth_bps * 10.0, 100e6), env.rtt_s / 2.0,
                  /*buffer=*/0.0, /*loss=*/0.0) {
    cwnd_ = opts.initial_cwnd_pkts * opts.mss_bytes;
    cca_.init(opts.mss_bytes, cwnd_);
  }

  trace::Trace run() {
    trace_.cca_name = cca_.name();
    trace_.env = env_;
    try_send();
    schedule_rto_check();
    if (env_.cross_traffic_bps > 0) schedule_cross_traffic();
    queue_.run_until(env_.duration_s);
    return std::move(trace_);
  }

 private:
  static double effective_buffer(const trace::Environment& env) {
    if (env.buffer_bytes > 0) return env.buffer_bytes;
    // Default: one bandwidth-delay product of buffering.
    return env.bandwidth_bps / 8.0 * env.rtt_s;
  }

  double inflight_bytes() const {
    return static_cast<double>(next_seq_ - last_ack_) * opts_.mss_bytes;
  }

  void try_send() {
    while (inflight_bytes() + opts_.mss_bytes <= cwnd_) {
      send_segment(next_seq_++, /*retransmit=*/false);
    }
  }

  void send_segment(std::int64_t seq, bool retransmit) {
    static auto& c_sent = obs::counter("sim.packets_sent");
    static auto& c_dropped = obs::counter("sim.packets_dropped");
    static auto& g_queue = obs::gauge("sim.queue_depth_pkts");
    const double now = queue_.now();
    if (!retransmit) send_time_[seq] = now;
    else send_time_.erase(seq);  // Karn: never RTT-sample a retransmit
    last_send_time_ = now;
    c_sent.add();
    auto delivery = data_link_.transmit(opts_.mss_bytes, now, rng_);
    g_queue.set(data_link_.backlog_bytes(now) / opts_.mss_bytes);
    if (!delivery) {
      c_dropped.add();
      return;  // dropped; recovered via dup ACKs or RTO
    }
    queue_.schedule(*delivery, [this, seq] { deliver_to_receiver(seq); });
  }

  void deliver_to_receiver(std::int64_t seq) {
    const std::int64_t ack = receiver_.on_segment(seq);
    auto delivery = ack_link_.transmit(40.0, queue_.now(), rng_);
    if (!delivery) return;
    queue_.schedule(*delivery, [this, ack] { on_ack(ack); });
  }

  cca::Signals make_signals(double acked_bytes) {
    cca::Signals sig;
    sig.mss = opts_.mss_bytes;
    sig.cwnd = cwnd_;
    sig.inflight = inflight_bytes();
    sig.acked_bytes = acked_bytes;
    tracker_.fill(sig, queue_.now());
    return sig;
  }

  void record(const cca::Signals& sig, std::int64_t ack, bool is_dup, bool loss_event) {
    trace::AckSample sample;
    sample.sig = sig;
    sample.cwnd_after = cwnd_;
    sample.ack_seq = static_cast<double>(ack) * opts_.mss_bytes;
    sample.is_dup = is_dup;
    sample.loss_event = loss_event;
    trace_.samples.push_back(sample);
  }

  void on_ack(std::int64_t ack) {
    static auto& c_acked = obs::counter("sim.packets_acked");
    static auto& c_dup = obs::counter("sim.dup_acks");
    const double now = queue_.now();
    if (ack > last_ack_) {
      // New data acknowledged.
      c_acked.add(static_cast<std::uint64_t>(ack - last_ack_));
      const double acked_bytes = static_cast<double>(ack - last_ack_) * opts_.mss_bytes;
      // RTT sample from the most recent newly-acked, never-retransmitted
      // segment.
      for (std::int64_t s = ack - 1; s >= last_ack_; --s) {
        auto it = send_time_.find(s);
        if (it != send_time_.end()) {
          tracker_.on_rtt_sample(now - it->second, now);
          break;
        }
      }
      for (std::int64_t s = last_ack_; s < ack; ++s) send_time_.erase(s);
      tracker_.on_delivery(acked_bytes, now);
      last_ack_ = ack;
      // After an RTO's go-back-N, ACKs for segments sent before the timeout
      // can overtake the resend point; never resend what is already acked.
      next_seq_ = std::max(next_seq_, ack);
      last_progress_time_ = now;
      dup_count_ = 0;
      if (in_recovery_ && ack >= recover_seq_) in_recovery_ = false;

      if (in_recovery_) {
        // NewReno partial ACK: the cumulative ACK advanced but did not reach
        // the recovery point, so another segment from the same loss episode
        // is missing. Retransmit it immediately and hold the window — only
        // one window reduction per loss episode.
        cca::Signals sig = make_signals(acked_bytes);
        record(sig, ack, /*is_dup=*/false, /*loss_event=*/false);
        send_segment(last_ack_, /*retransmit=*/true);
      } else {
        cca::Signals sig = make_signals(acked_bytes);
        cwnd_ = std::max(cca_.on_ack(sig), opts_.mss_bytes);
        record(sig, ack, /*is_dup=*/false, /*loss_event=*/false);
      }
    } else {
      // Duplicate ACK.
      c_dup.add();
      ++dup_count_;
      bool loss = false;
      if (dup_count_ == 3 && !in_recovery_) {
        loss = true;
        in_recovery_ = true;
        recover_seq_ = next_seq_;
        tracker_.on_loss(now, cwnd_);
        cca::Signals sig = make_signals(0.0);
        cwnd_ = std::max(cca_.on_loss(sig), opts_.mss_bytes);
        record(sig, ack, /*is_dup=*/true, /*loss_event=*/true);
        send_segment(last_ack_, /*retransmit=*/true);  // fast retransmit
      } else {
        cca::Signals sig = make_signals(0.0);
        record(sig, ack, /*is_dup=*/true, /*loss_event=*/false);
      }
      (void)loss;
    }
    try_send();
  }

  // Competing Poisson traffic occupying the bottleneck queue: packets enter
  // the same drop-tail link but are not delivered to our receiver. Raises
  // the flow's experienced queueing delay and loss, diversifying traces the
  // way real cross traffic on a measurement path does.
  void schedule_cross_traffic() {
    const double mean_interval = opts_.mss_bytes * 8.0 / env_.cross_traffic_bps;
    queue_.schedule_in(rng_.exponential(1.0 / mean_interval), [this] {
      (void)data_link_.transmit(opts_.mss_bytes, queue_.now(), rng_);
      if (queue_.now() < env_.duration_s) schedule_cross_traffic();
    });
  }

  void schedule_rto_check() {
    const double interval = std::max(opts_.rto_floor_s, opts_.rto_srtt_multiplier *
                                                            std::max(tracker_.srtt(), 0.05));
    queue_.schedule_in(interval, [this] {
      maybe_timeout();
      if (queue_.now() < env_.duration_s) schedule_rto_check();
    });
  }

  void maybe_timeout() {
    const double now = queue_.now();
    const double rto = std::max(opts_.rto_floor_s,
                                opts_.rto_srtt_multiplier * std::max(tracker_.srtt(), 0.05));
    const bool stalled = inflight_bytes() > 0 && now - last_progress_time_ > rto &&
                         now - last_send_time_ > rto;
    if (!stalled) return;
    // Retransmission timeout: treat as a loss event and go back to the
    // cumulative frontier.
    tracker_.on_loss(now, cwnd_);
    cca::Signals sig = make_signals(0.0);
    cwnd_ = std::max(cca_.on_loss(sig), opts_.mss_bytes);
    record(sig, last_ack_, /*is_dup=*/false, /*loss_event=*/true);
    in_recovery_ = true;
    recover_seq_ = next_seq_;
    next_seq_ = last_ack_;  // go-back-N resend
    send_time_.clear();
    last_progress_time_ = now;
    try_send();
  }

  cca::CcaInterface& cca_;
  SimOptions opts_;
  trace::Environment env_;
  util::Rng rng_;
  EventQueue queue_;
  Link data_link_;
  Link ack_link_;
  Receiver receiver_;
  SignalTracker tracker_;
  trace::Trace trace_;

  double cwnd_ = 0.0;
  std::int64_t next_seq_ = 0;
  std::int64_t last_ack_ = 0;
  std::map<std::int64_t, double> send_time_;
  int dup_count_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_seq_ = 0;
  double last_progress_time_ = 0.0;
  double last_send_time_ = 0.0;
};

}  // namespace

trace::Trace run_connection(cca::CcaInterface& cca, const trace::Environment& env,
                            const SimOptions& opts) {
  static auto& c_conns = obs::counter("sim.connections");
  c_conns.add();
  Connection conn(cca, env, opts);
  return conn.run();
}

trace::Trace run_connection(const std::string& cca_name, const trace::Environment& env,
                            const SimOptions& opts) {
  auto cca = cca::make_cca(cca_name);
  return run_connection(*cca, env, opts);
}

std::vector<trace::Environment> default_environments(std::size_t count, std::uint64_t seed) {
  std::vector<trace::Environment> envs;
  envs.reserve(count);
  // Diagonal sweep across the paper's testbed ranges: RTT 10-100 ms,
  // bandwidth 5-15 Mbps.
  for (std::size_t i = 0; i < count; ++i) {
    const double f = count > 1 ? static_cast<double>(i) / static_cast<double>(count - 1) : 0.5;
    trace::Environment env;
    env.rtt_s = 0.010 + f * 0.090;
    env.bandwidth_bps = 5e6 + (1.0 - f) * 10e6;
    env.seed = seed + i;
    env.duration_s = 30.0;
    envs.push_back(env);
  }
  return envs;
}

std::vector<trace::Trace> collect_traces(const std::string& cca_name,
                                         const std::vector<trace::Environment>& envs,
                                         const SimOptions& opts) {
  std::vector<trace::Trace> traces;
  traces.reserve(envs.size());
  for (const auto& env : envs) {
    traces.push_back(run_connection(cca_name, env, opts));
    ABG_DEBUG("collected %s @ %s: %zu samples", cca_name.c_str(), env.label().c_str(),
              traces.back().samples.size());
  }
  return traces;
}

}  // namespace abg::net
