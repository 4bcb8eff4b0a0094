#include "obs/journal.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/trace_events.hpp"

namespace abg::obs {

namespace detail {
std::atomic<bool> g_journal_on{false};
}  // namespace detail

namespace {

constexpr char kHeaderMagic[8] = {'A', 'B', 'G', 'J', 'R', 'N', 'L', '1'};
constexpr char kTrailerMagic[8] = {'A', 'B', 'G', 'J', 'E', 'N', 'D', '1'};
constexpr std::uint32_t kVersion = 1;

// One producer thread's ring. The producer owns head and the slots in
// [tail, head); the drainer owns tail. Classic SPSC: the producer's release
// store of head publishes the slot contents, the drainer's release store of
// tail publishes that the slots may be reused. Rings are created on a
// thread's first emission and never destroyed (the drainer may hold a
// pointer), exactly like metric handles.
struct Ring {
  explicit Ring(std::size_t cap) : buf(cap == 0 ? 1 : cap) {}

  std::vector<JournalRecord> buf;
  alignas(64) std::atomic<std::uint64_t> head{0};
  alignas(64) std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};
};

struct Journal {
  std::mutex mu;  // rings list, string table, file, lifecycle
  std::vector<std::unique_ptr<Ring>> rings;
  std::vector<std::string> strings{std::string()};  // id 0 = ""
  std::unordered_map<std::string, std::uint32_t> intern;
  JournalOptions opts;
  std::FILE* file = nullptr;
  std::thread drainer;
  std::atomic<bool> draining{false};
  std::uint64_t written = 0;  // records drained to the file (drainer only)

  // Session stats (reset by journal_start).
  std::atomic<std::uint64_t> recorded{0};
  std::atomic<std::uint64_t> by_kind[kJournalKindCount] = {};

  // Epoch as steady-clock nanoseconds; atomic so producers can read it
  // without the mutex (a stale read only shifts a timestamp, never races).
  std::atomic<std::uint64_t> epoch_ns{0};
  std::atomic<std::size_t> ring_capacity{8192};
};

Journal& journal() {
  static Journal* j = new Journal;  // leaked: outlive static destructors
  return *j;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Per-thread journal state: the ring, the scope provenance, and the current
// candidate. Plain TLS — provenance is installed inside each scoring task
// (JournalScope), so stolen tasks carry the submitting run's attribution.
struct Tls {
  Ring* ring = nullptr;
  std::uint32_t job = 0;
  std::uint32_t bucket = 0;
  std::uint32_t iter = 0;
  bool in_scope = false;
  bool in_candidate = false;
  std::uint64_t sketch = 0;
  std::uint64_t candidate = 0;
  std::uint64_t cells = 0;
  std::uint32_t segment = kJournalNoSegment;
};

thread_local Tls t_journal;

Ring& this_ring() {
  if (t_journal.ring == nullptr) {
    auto& j = journal();
    std::lock_guard lk(j.mu);
    j.rings.push_back(std::make_unique<Ring>(j.ring_capacity.load(std::memory_order_relaxed)));
    t_journal.ring = j.rings.back().get();
  }
  return *t_journal.ring;
}

void push(JournalRecord r) {
  auto& j = journal();
  r.ts_ns = steady_ns() - j.epoch_ns.load(std::memory_order_acquire);
  Ring& ring = this_ring();
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  if (h - ring.tail.load(std::memory_order_acquire) >= ring.buf.size()) {
    // Full: drop, never block. The drop is visible three ways — the obs
    // counter, the session stats, and the journal trailer.
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
    static auto& c_dropped = counter("obs.journal_dropped");
    c_dropped.add();
    return;
  }
  ring.buf[h % ring.buf.size()] = r;
  ring.head.store(h + 1, std::memory_order_release);
  j.recorded.fetch_add(1, std::memory_order_relaxed);
  j.by_kind[r.kind].fetch_add(1, std::memory_order_relaxed);
}

// Drain every ring into the journal file. Drainer thread (and, at stop, the
// stopping thread after the drainer has joined).
void drain_all(Journal& j) {
  std::vector<Ring*> rings;
  {
    std::lock_guard lk(j.mu);
    rings.reserve(j.rings.size());
    for (const auto& r : j.rings) rings.push_back(r.get());
  }
  for (Ring* ring : rings) {
    const std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    for (std::uint64_t i = tail; i != head; ++i) {
      const JournalRecord& rec = ring->buf[i % ring->buf.size()];
      if (std::fwrite(&rec, sizeof rec, 1, j.file) == 1) ++j.written;
    }
    ring->tail.store(head, std::memory_order_release);
  }
}

void write_u32(std::FILE* f, std::uint32_t v) { std::fwrite(&v, sizeof v, 1, f); }
void write_u64(std::FILE* f, std::uint64_t v) { std::fwrite(&v, sizeof v, 1, f); }

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ull;
}

}  // namespace

const char* journal_kind_name(JournalKind k) {
  switch (k) {
    case JournalKind::kSketch: return "sketch";
    case JournalKind::kEnumerated: return "enumerated";
    case JournalKind::kCacheHit: return "cache_hit";
    case JournalKind::kEvaluated: return "evaluated";
    case JournalKind::kAbandoned: return "abandoned";
    case JournalKind::kSelected: return "selected";
    case JournalKind::kLbPrune: return "lb_prune";
    case JournalKind::kRowAbandon: return "row_abandon";
    case JournalKind::kDtwEval: return "dtw_eval";
    case JournalKind::kLbKeoghPrune: return "lb_keogh_prune";
  }
  return "?";
}

bool journal_start(const JournalOptions& opts, std::string* err) {
  auto& j = journal();
  std::lock_guard lk(j.mu);
  if (journal_enabled() || j.draining.load(std::memory_order_relaxed)) {
    if (err != nullptr) *err = "journal already running";
    return false;
  }
  if (opts.path.empty()) {
    if (err != nullptr) *err = "journal path must not be empty";
    return false;
  }
  std::FILE* f = std::fopen(opts.path.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + opts.path + " for writing";
    return false;
  }
  std::fwrite(kHeaderMagic, sizeof kHeaderMagic, 1, f);
  write_u32(f, kVersion);
  write_u32(f, static_cast<std::uint32_t>(sizeof(JournalRecord)));

  j.opts = opts;
  j.file = f;
  j.written = 0;
  j.recorded.store(0, std::memory_order_relaxed);
  for (auto& k : j.by_kind) k.store(0, std::memory_order_relaxed);
  const std::size_t cap = opts.ring_capacity == 0 ? 1 : opts.ring_capacity;
  j.ring_capacity.store(cap, std::memory_order_relaxed);
  // Discard anything a previous session left behind in the rings (events
  // emitted after its final drain), reset the drop counts, and apply this
  // session's capacity to rings surviving from earlier sessions (producers
  // are quiescent here — the journal is disarmed — so resizing is safe).
  for (auto& r : j.rings) {
    r->tail.store(r->head.load(std::memory_order_acquire), std::memory_order_relaxed);
    r->dropped.store(0, std::memory_order_relaxed);
    if (r->buf.size() != cap) r->buf.assign(cap, JournalRecord{});
  }
  j.epoch_ns.store(steady_ns(), std::memory_order_release);

  j.draining.store(true, std::memory_order_relaxed);
  const int interval_ms = opts.drain_interval_ms < 1 ? 1 : opts.drain_interval_ms;
  j.drainer = std::thread([&j, interval_ms] {
    while (j.draining.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      drain_all(j);
    }
  });
  detail::g_journal_on.store(true, std::memory_order_release);
  return true;
}

JournalStats journal_stop() {
  auto& j = journal();
  JournalStats stats;
  if (!j.draining.load(std::memory_order_relaxed)) return stats;
  detail::g_journal_on.store(false, std::memory_order_release);
  j.draining.store(false, std::memory_order_relaxed);
  if (j.drainer.joinable()) j.drainer.join();
  drain_all(j);

  std::lock_guard lk(j.mu);
  std::uint64_t dropped = 0;
  for (const auto& r : j.rings) dropped += r->dropped.load(std::memory_order_relaxed);
  // String table + trailer.
  const long strtab_offset = std::ftell(j.file);
  write_u32(j.file, static_cast<std::uint32_t>(j.strings.size()));
  for (const auto& s : j.strings) {
    write_u32(j.file, static_cast<std::uint32_t>(s.size()));
    std::fwrite(s.data(), 1, s.size(), j.file);
  }
  std::fwrite(kTrailerMagic, sizeof kTrailerMagic, 1, j.file);
  write_u64(j.file, j.written);
  write_u64(j.file, dropped);
  write_u64(j.file, static_cast<std::uint64_t>(strtab_offset));
  std::fclose(j.file);
  j.file = nullptr;

  stats.recorded = j.recorded.load(std::memory_order_relaxed);
  stats.dropped = dropped;
  for (std::size_t i = 0; i < kJournalKindCount; ++i) {
    stats.by_kind[i] = j.by_kind[i].load(std::memory_order_relaxed);
  }
  return stats;
}

std::uint32_t journal_intern(const std::string& s) {
  if (s.empty()) return 0;
  auto& j = journal();
  std::lock_guard lk(j.mu);
  const auto it = j.intern.find(s);
  if (it != j.intern.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(j.strings.size());
  j.strings.push_back(s);
  j.intern.emplace(s, id);
  return id;
}

JournalScope::JournalScope(std::uint32_t job, std::uint32_t bucket, std::uint32_t iter) {
  Tls& t = t_journal;
  prev_[0] = (static_cast<std::uint64_t>(t.job) << 32) | t.bucket;
  prev_[1] = (static_cast<std::uint64_t>(t.iter) << 32) |
             (static_cast<std::uint64_t>(t.in_scope) << 1) |
             static_cast<std::uint64_t>(t.in_candidate);
  prev_[2] = t.sketch;
  prev_[3] = t.candidate;
  prev_[4] = t.cells;
  prev_[5] = t.segment;
  t.job = job;
  t.bucket = bucket;
  t.iter = iter;
  t.in_scope = true;
  t.in_candidate = false;
  t.sketch = 0;
  t.candidate = 0;
  t.cells = 0;
  t.segment = kJournalNoSegment;
}

JournalScope::~JournalScope() {
  Tls& t = t_journal;
  t.job = static_cast<std::uint32_t>(prev_[0] >> 32);
  t.bucket = static_cast<std::uint32_t>(prev_[0]);
  t.iter = static_cast<std::uint32_t>(prev_[1] >> 32);
  t.in_scope = (prev_[1] & 2) != 0;
  t.in_candidate = (prev_[1] & 1) != 0;
  t.sketch = prev_[2];
  t.candidate = prev_[3];
  t.cells = prev_[4];
  t.segment = static_cast<std::uint32_t>(prev_[5]);
}

bool journal_in_scope() { return journal_enabled() && t_journal.in_scope; }

void journal_begin_candidate(std::uint64_t sketch_hash, std::uint64_t fingerprint) {
  Tls& t = t_journal;
  t.sketch = sketch_hash;
  t.candidate = fingerprint;
  t.cells = 0;
  t.segment = kJournalNoSegment;
  t.in_candidate = true;
}

void journal_end_candidate() {
  Tls& t = t_journal;
  t.in_candidate = false;
  t.sketch = 0;
  t.candidate = 0;
  t.cells = 0;
  t.segment = kJournalNoSegment;
}

bool journal_in_candidate() {
  const Tls& t = t_journal;
  return journal_enabled() && t.in_scope && t.in_candidate;
}

void journal_set_segment(std::uint32_t index) { t_journal.segment = index; }

std::uint64_t journal_take_cells() {
  const std::uint64_t c = t_journal.cells;
  t_journal.cells = 0;
  return c;
}

std::uint64_t journal_fingerprint(std::uint64_t sketch_hash,
                                  const std::vector<double>& assignment) {
  std::uint64_t h = mix64(0xcbf29ce484222325ull, sketch_hash);
  for (double v : assignment) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    h = mix64(h, bits);
  }
  // A fingerprint of 0 means "none" everywhere else; remap the (vanishingly
  // unlikely) real 0.
  return h == 0 ? 1 : h;
}

void journal_record_candidate(JournalKind kind, double distance, std::uint64_t cells) {
  if (!journal_in_candidate()) return;
  const Tls& t = t_journal;
  JournalRecord r;
  r.candidate = t.candidate;
  r.sketch = t.sketch;
  r.cells = cells;
  r.distance = distance;
  r.job = t.job;
  r.bucket = t.bucket;
  r.iter = t.iter;
  r.kind = static_cast<std::uint8_t>(kind);
  push(r);
}

void journal_record_distance(JournalKind kind, double distance, std::uint64_t cells,
                             std::uint8_t kernel) {
  if (!journal_in_candidate()) return;
  Tls& t = t_journal;
  t.cells += cells;
  JournalRecord r;
  r.candidate = t.candidate;
  r.sketch = t.sketch;
  r.cells = cells;
  r.distance = distance;
  r.job = t.job;
  r.bucket = t.bucket;
  r.iter = t.iter;
  r.segment = t.segment;
  r.kind = static_cast<std::uint8_t>(kind);
  r.kernel = kernel;
  push(r);
}

void journal_record_sketch(std::uint64_t sketch_hash) {
  if (!journal_in_scope()) return;
  const Tls& t = t_journal;
  JournalRecord r;
  r.sketch = sketch_hash;
  r.job = t.job;
  r.bucket = t.bucket;
  r.iter = t.iter;
  r.kind = static_cast<std::uint8_t>(JournalKind::kSketch);
  push(r);
}

void journal_record_selected(std::uint64_t sketch_hash, std::uint64_t fingerprint,
                             double distance, std::uint32_t detail, bool final_winner) {
  if (!journal_in_scope()) return;
  const Tls& t = t_journal;
  JournalRecord r;
  r.candidate = fingerprint;
  r.sketch = sketch_hash;
  r.distance = distance;
  r.job = t.job;
  r.bucket = t.bucket;
  r.iter = t.iter;
  r.detail = detail;
  r.kind = static_cast<std::uint8_t>(JournalKind::kSelected);
  r.flags = final_winner ? kJournalFinal : 0;
  push(r);
}

JournalSummary journal_summary() {
  auto& j = journal();
  JournalSummary s;
  s.enabled = journal_enabled();
  s.recorded = j.recorded.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kJournalKindCount; ++i) {
    s.by_kind[i] = j.by_kind[i].load(std::memory_order_relaxed);
  }
  std::lock_guard lk(j.mu);
  s.path = j.draining.load(std::memory_order_relaxed) ? j.opts.path : std::string();
  for (const auto& r : j.rings) s.dropped += r->dropped.load(std::memory_order_relaxed);
  return s;
}

std::string journal_summary_json() {
  const JournalSummary s = journal_summary();
  JsonWriter w;
  w.begin_object();
  w.key("enabled");
  w.value(s.enabled);
  w.key("path");
  w.value(s.path);
  w.key("recorded");
  w.value(s.recorded);
  w.key("dropped");
  w.value(s.dropped);
  w.key("by_kind");
  w.begin_object();
  for (std::size_t i = 0; i < kJournalKindCount; ++i) {
    w.key(journal_kind_name(static_cast<JournalKind>(i)));
    w.value(s.by_kind[i]);
  }
  w.end_object();
  w.end_object();
  return w.take();
}

void journal_emit_trace_counters() {
  if (!journal_enabled() || !tracing_enabled()) return;
  const JournalSummary s = journal_summary();
  auto kind = [&s](JournalKind k) { return s.by_kind[static_cast<std::size_t>(k)]; };
  {
    JsonWriter w;
    w.begin_object();
    w.key("enumerated");
    w.value(kind(JournalKind::kEnumerated));
    w.key("cache_hit");
    w.value(kind(JournalKind::kCacheHit));
    w.key("evaluated");
    w.value(kind(JournalKind::kEvaluated));
    w.key("abandoned");
    w.value(kind(JournalKind::kAbandoned));
    w.end_object();
    trace_counter_event("search funnel", "journal", w.take());
  }
  {
    JsonWriter w;
    w.begin_object();
    w.key("lb_prune");
    w.value(kind(JournalKind::kLbPrune));
    w.key("lb_keogh_prune");
    w.value(kind(JournalKind::kLbKeoghPrune));
    w.key("row_abandon");
    w.value(kind(JournalKind::kRowAbandon));
    w.key("dtw_eval");
    w.value(kind(JournalKind::kDtwEval));
    w.end_object();
    trace_counter_event("dtw evals", "journal", w.take());
  }
}

bool read_journal(const std::string& path, JournalFile* out, std::string* err) {
  auto fail = [err](const std::string& msg) {
    if (err != nullptr) *err = msg;
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("cannot open " + path);
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  char magic[8];
  std::uint32_t version = 0, record_size = 0;
  if (std::fread(magic, sizeof magic, 1, f) != 1 ||
      std::memcmp(magic, kHeaderMagic, sizeof magic) != 0) {
    return fail(path + ": not a journal file (bad header)");
  }
  if (std::fread(&version, sizeof version, 1, f) != 1 ||
      std::fread(&record_size, sizeof record_size, 1, f) != 1 || version != kVersion ||
      record_size != sizeof(JournalRecord)) {
    return fail(path + ": unsupported journal version/record size");
  }

  constexpr long kTrailerSize = 8 + 3 * 8;
  if (std::fseek(f, -kTrailerSize, SEEK_END) != 0) return fail(path + ": truncated journal");
  std::uint64_t count = 0, dropped = 0, strtab_offset = 0;
  if (std::fread(magic, sizeof magic, 1, f) != 1 ||
      std::memcmp(magic, kTrailerMagic, sizeof magic) != 0 ||
      std::fread(&count, sizeof count, 1, f) != 1 ||
      std::fread(&dropped, sizeof dropped, 1, f) != 1 ||
      std::fread(&strtab_offset, sizeof strtab_offset, 1, f) != 1) {
    return fail(path + ": missing trailer (journal not closed by journal_stop?)");
  }

  constexpr long kHeaderSize = 8 + 2 * 4;
  if (strtab_offset < static_cast<std::uint64_t>(kHeaderSize) ||
      (strtab_offset - kHeaderSize) != count * sizeof(JournalRecord)) {
    return fail(path + ": record count does not match the string-table offset");
  }
  out->records.resize(count);
  if (std::fseek(f, kHeaderSize, SEEK_SET) != 0 ||
      (count > 0 &&
       std::fread(out->records.data(), sizeof(JournalRecord), count, f) != count)) {
    return fail(path + ": short read of records");
  }

  std::uint32_t nstrings = 0;
  if (std::fseek(f, static_cast<long>(strtab_offset), SEEK_SET) != 0 ||
      std::fread(&nstrings, sizeof nstrings, 1, f) != 1) {
    return fail(path + ": short read of string table");
  }
  out->strings.clear();
  out->strings.reserve(nstrings);
  for (std::uint32_t i = 0; i < nstrings; ++i) {
    std::uint32_t len = 0;
    if (std::fread(&len, sizeof len, 1, f) != 1) return fail(path + ": bad string table");
    std::string s(len, '\0');
    if (len > 0 && std::fread(s.data(), 1, len, f) != len) {
      return fail(path + ": bad string table");
    }
    out->strings.push_back(std::move(s));
  }
  out->dropped = dropped;
  return true;
}

std::vector<std::string> split_journal_by_job(const std::string& path, std::string* err) {
  std::vector<std::string> written;
  JournalFile combined;
  if (!read_journal(path, &combined, err)) return written;

  std::map<std::uint32_t, std::vector<const JournalRecord*>> by_job;
  for (const auto& r : combined.records) {
    if (r.job != 0) by_job[r.job].push_back(&r);
  }
  for (const auto& [job_id, records] : by_job) {
    std::string name = combined.str(job_id);
    for (char& c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
      if (!ok) c = '_';
    }
    const std::string out_path = path + "." + name;
    std::FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr) {
      if (err != nullptr) *err = "cannot open " + out_path + " for writing";
      return written;
    }
    std::fwrite(kHeaderMagic, sizeof kHeaderMagic, 1, f);
    write_u32(f, kVersion);
    write_u32(f, static_cast<std::uint32_t>(sizeof(JournalRecord)));
    for (const JournalRecord* r : records) std::fwrite(r, sizeof *r, 1, f);
    const long strtab_offset = std::ftell(f);
    // Reuse the combined string table wholesale: intern ids stay valid and
    // the split stays a plain record filter.
    write_u32(f, static_cast<std::uint32_t>(combined.strings.size()));
    for (const auto& s : combined.strings) {
      write_u32(f, static_cast<std::uint32_t>(s.size()));
      std::fwrite(s.data(), 1, s.size(), f);
    }
    std::fwrite(kTrailerMagic, sizeof kTrailerMagic, 1, f);
    write_u64(f, records.size());
    write_u64(f, 0);
    write_u64(f, static_cast<std::uint64_t>(strtab_offset));
    if (std::fclose(f) != 0) {
      if (err != nullptr) *err = "write failed for " + out_path;
      return written;
    }
    written.push_back(out_path);
  }
  return written;
}

}  // namespace abg::obs
