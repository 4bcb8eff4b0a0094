#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

namespace abg::obs {

namespace {

// Lock-free relaxed max update for atomic<double>.
void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

// Canonical form: labels sorted by key (ties by value), deduped by key, and
// capped at kMaxLabelsPerSeries. Sorting makes {a=1,b=2} and {b=2,a=1} the
// same series; deduping by key (first value wins, i.e. the smallest after the
// sort) keeps a repeated key like {job=a,job=b} from reaching the exporters,
// where a repeated label name is invalid exposition output.
Labels normalize_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end(),
                           [](const auto& a, const auto& b) { return a.first == b.first; }),
               labels.end());
  if (labels.size() > kMaxLabelsPerSeries) labels.resize(kMaxLabelsPerSeries);
  return labels;
}

const Labels& overflow_labels() {
  static const Labels* l = new Labels{{"overflow", "true"}};
  return *l;
}

// A series is (name, normalized labels); map ordering gives the name-major,
// label-sorted snapshot order the exporters rely on.
using SeriesKey = std::pair<std::string, Labels>;

// The registry itself: series -> handle maps behind one mutex. The mutex is
// only taken on registration/snapshot/reset, never on increment. Leaked on
// purpose (never destroyed) so handles cached in function-local statics stay
// valid through static destruction order.
struct Registry {
  std::mutex mu;
  std::map<SeriesKey, std::unique_ptr<Counter>> counters;
  std::map<SeriesKey, std::unique_ptr<Gauge>> gauges;
  std::map<SeriesKey, std::unique_ptr<Histogram>> histograms;
  // Labeled-series count per family name, for the cardinality cap.
  std::map<std::string, std::size_t> family_series;
  // Family name -> help string (describe()).
  std::map<std::string, std::string> help;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

// Find-or-create a series in `m`. When the family is at its cardinality cap,
// new label sets collapse into the {overflow="true"} series; `overflowed`
// reports that so the caller can bump obs.series_overflow after the registry
// mutex is released (counter() re-enters the same mutex).
template <typename T, typename Make>
T& find_series(std::map<SeriesKey, std::unique_ptr<T>>& m, const std::string& name,
               Labels labels, bool& overflowed, Make make) {
  auto& r = registry();
  labels = normalize_labels(std::move(labels));
  std::lock_guard lk(r.mu);
  auto it = m.find(SeriesKey{name, labels});
  if (it != m.end()) return *it->second;
  if (!labels.empty() && labels != overflow_labels() &&
      r.family_series[name] >= kMaxSeriesPerFamily) {
    overflowed = true;
    auto& slot = m[SeriesKey{name, overflow_labels()}];
    if (!slot) slot = make();
    return *slot;
  }
  if (!labels.empty()) ++r.family_series[name];
  auto& slot = m[SeriesKey{name, std::move(labels)}];
  slot = make();
  return *slot;
}

// Sets process.rss_mb and process.peak_rss_mb from /proc/self/status
// (VmRSS, VmHWM), so every export carries the process's memory as of the
// export. Where that file does not exist the gauges are never registered.
void sample_process_memory() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return;
  static Gauge& rss = gauge("process.rss_mb");
  static Gauge& peak = gauge("process.peak_rss_mb");
  static const bool described = [] {
    describe("process.rss_mb", "resident set size (VmRSS), MB");
    describe("process.peak_rss_mb", "peak resident set size (VmHWM), MB");
    return true;
  }();
  (void)described;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long kb = 0;
    if (std::strncmp(line, "VmRSS:", 6) == 0 && std::sscanf(line + 6, "%ld", &kb) == 1) {
      rss.set(static_cast<double>(kb) / 1024.0);
    } else if (std::strncmp(line, "VmHWM:", 6) == 0 && std::sscanf(line + 6, "%ld", &kb) == 1) {
      peak.set(static_cast<double>(kb) / 1024.0);
    }
  }
  std::fclose(f);
}

}  // namespace

std::string series_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  // Canonicalize: the caller may pass labels in any order, but the text
  // identity must be unique per series, exactly like the registry's own keys.
  const Labels norm = normalize_labels(labels);
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : norm) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    for (char c : v) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

void Gauge::set(double v) {
  last_.store(v, std::memory_order_relaxed);
  atomic_max(max_, v);
}

void Gauge::reset() {
  last_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(bounds.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

std::span<const double> default_time_bounds_us() {
  static const double kBounds[] = {1,    2,    5,    10,   20,   50,   100,  200,
                                   500,  1e3,  2e3,  5e3,  1e4,  2e4,  5e4,  1e5,
                                   2e5,  5e5,  1e6,  2e6,  5e6,  1e7,  3e7,  6e7};
  return kBounds;
}

Counter& counter(const std::string& name) { return counter(name, Labels{}); }

Counter& counter(const std::string& name, const Labels& labels) {
  bool overflowed = false;
  Counter& c = find_series(registry().counters, name, labels, overflowed,
                           [] { return std::make_unique<Counter>(); });
  if (overflowed) counter("obs.series_overflow").add();
  return c;
}

Gauge& gauge(const std::string& name) { return gauge(name, Labels{}); }

Gauge& gauge(const std::string& name, const Labels& labels) {
  bool overflowed = false;
  Gauge& g = find_series(registry().gauges, name, labels, overflowed,
                         [] { return std::make_unique<Gauge>(); });
  if (overflowed) counter("obs.series_overflow").add();
  return g;
}

Histogram& histogram(const std::string& name, std::span<const double> bounds) {
  return histogram(name, bounds, Labels{});
}

Histogram& histogram(const std::string& name, std::span<const double> bounds,
                     const Labels& labels) {
  bool overflowed = false;
  Histogram& h = find_series(registry().histograms, name, labels, overflowed,
                             [bounds] { return std::make_unique<Histogram>(bounds); });
  if (overflowed) counter("obs.series_overflow").add();
  return h;
}

void describe(const std::string& name, const std::string& help) {
  auto& r = registry();
  std::lock_guard lk(r.mu);
  r.help.emplace(name, help);  // first registration wins
}

Snapshot snapshot() {
  // Eagerly materialize the overflow counter (outside the lock: counter()
  // re-enters the registry mutex) so every report carries the series and an
  // exact-value gate like `--require obs.series_overflow=0` can always bind.
  {
    static Counter* overflow = [] {
      describe("obs.series_overflow", "label sets collapsed into the overflow series");
      return &counter("obs.series_overflow");
    }();
    (void)overflow;
  }
  sample_process_memory();
  auto& r = registry();
  std::lock_guard lk(r.mu);
  Snapshot s;
  s.help = r.help;
  for (const auto& [key, c] : r.counters) {
    s.counters.push_back(Snapshot::CounterData{key.first, key.second, c->value()});
  }
  for (const auto& [key, g] : r.gauges) {
    s.gauges.push_back(Snapshot::GaugeData{key.first, key.second, g->last(), g->max()});
  }
  for (const auto& [key, h] : r.histograms) {
    Snapshot::HistogramData d;
    d.name = key.first;
    d.labels = key.second;
    d.bounds = h->bounds();
    d.counts = h->counts();
    d.count = h->count();
    d.sum = h->sum();
    d.min = h->min();
    d.max = h->max();
    s.histograms.push_back(std::move(d));
  }
  return s;
}

std::uint64_t Snapshot::counter_value(const std::string& name) const {
  return counter_value(name, Labels{});
}

std::uint64_t Snapshot::counter_value(const std::string& name, const Labels& labels) const {
  const Labels norm = normalize_labels(labels);
  for (const auto& c : counters) {
    if (c.name == name && c.labels == norm) return c.value;
  }
  return 0;
}

void reset_all() {
  auto& r = registry();
  std::lock_guard lk(r.mu);
  for (auto& [key, c] : r.counters) c->reset();
  for (auto& [key, g] : r.gauges) g->reset();
  for (auto& [key, h] : r.histograms) h->reset();
}

}  // namespace abg::obs
