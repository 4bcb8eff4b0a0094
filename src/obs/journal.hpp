// Search-forensics journal (ISSUE 6): one compact binary event per candidate
// lifecycle step — sketch emitted, candidate enumerated, cache-hit, fully
// evaluated, abandoned, selected — plus per-DTW-eval detail events (LB prune,
// row abandon, completed eval with cells spent). Each record carries full
// provenance: job, iteration, bucket, sketch hash, hole-assignment
// fingerprint, distance, DTW cells, and a nanosecond timestamp. Where the
// metrics registry answers "how many candidates were pruned", the journal
// answers "which ones, why, and how close they came".
//
// Hot-path contract:
//   - Journal off: every emission site is guarded by journal_enabled(), a
//     single relaxed atomic load. No TLS, no allocation, no branch beyond it.
//   - Journal on: the event is stamped and pushed into the calling thread's
//     private SPSC ring buffer (one relaxed/release pair, no locks). A
//     background drainer streams rings to the journal file; when a producer
//     outruns the drainer the record is dropped and counted
//     ("obs.journal_dropped" plus the per-session dropped total) — emission
//     never blocks.
//
// Provenance crosses threads the same way span context does: the refinement
// loop installs a JournalScope (job/bucket/iteration) inside each scoring
// task, so a pool worker that steals the task attributes events to the
// submitting job. No scope, no events — code that runs outside a journaled
// synthesis (the classifier, final validation) cannot pollute the funnel.
//
// File format (native endianness, record-major):
//   header : "ABGJRNL1" u32 version u32 record_size(=64)
//   records: JournalRecord[] written verbatim as they drain
//   strtab : u32 count, then per string u32 length + bytes (index = intern id)
//   trailer: "ABGJEND1" u64 record_count u64 dropped u64 strtab_offset
// The trailer is written by journal_stop(); a file without one was truncated
// mid-run and read_journal() rejects it.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace abg::obs {

enum class JournalKind : std::uint8_t {
  kSketch = 0,     // enumerator emitted a (deduped, canonical) sketch
  kEnumerated,     // a hole assignment was concretized into a candidate
  kCacheHit,       // the memo cache answered this candidate (terminal)
  kEvaluated,      // exact distance computed for this candidate (terminal)
  kAbandoned,      // candidate abandoned against the bucket bound (terminal)
  kSelected,       // bucket best of an iteration; kJournalFinal = run winner
  kLbPrune,        // one DTW eval pruned by the LB_Kim endpoint bound
  kRowAbandon,     // one DTW eval abandoned mid-DP (row minimum >= cutoff)
  kDtwEval,        // one completed DTW eval (cells = DP cells, n x m)
  kLbKeoghPrune,   // one DTW eval pruned by the LB_Keogh envelope bound
};
inline constexpr std::size_t kJournalKindCount = 10;

const char* journal_kind_name(JournalKind k);

// Record flags.
inline constexpr std::uint8_t kJournalFinal = 1;  // kSelected: the run winner

// Sentinel for "no segment": candidate- and sketch-level events are not tied
// to one segment of the working set.
inline constexpr std::uint32_t kJournalNoSegment = 0xffffffffu;

// One journal event. Trivially copyable; written to the file verbatim.
struct JournalRecord {
  std::uint64_t ts_ns = 0;      // steady-clock ns since journal_start()
  std::uint64_t candidate = 0;  // hole-assignment fingerprint (0 = none)
  std::uint64_t sketch = 0;     // canonical sketch hash (0 = none)
  std::uint64_t cells = 0;      // DTW cells spent (distance events, terminals)
  double distance = 0.0;        // meaning depends on kind (bound/exact/best)
  std::uint32_t job = 0;        // interned string id (0 = "")
  std::uint32_t bucket = 0;     // interned string id
  std::uint32_t iter = 0;       // refinement iteration
  std::uint32_t segment = kJournalNoSegment;  // index into the working set
  std::uint32_t detail = 0;     // interned string (selected handler text)
  std::uint8_t kind = 0;        // JournalKind
  std::uint8_t flags = 0;
  std::uint8_t kernel = 0;      // distance events: DTW kernel (distance::Simd)
  std::uint8_t pad = 0;
};
static_assert(sizeof(JournalRecord) == 64, "journal records are 64-byte");

struct JournalOptions {
  std::string path;                   // required: the journal file
  std::size_t ring_capacity = 8192;   // records per thread ring (512 KiB)
  int drain_interval_ms = 2;          // background drain period
};

namespace detail {
extern std::atomic<bool> g_journal_on;
}  // namespace detail

// The one relaxed load every emission site pays when journaling is off.
inline bool journal_enabled() {
  return detail::g_journal_on.load(std::memory_order_relaxed);
}

// Arm the journal: open the file, write the header, start the drainer.
// False (with *err) on I/O failure or if a journal is already running.
bool journal_start(const JournalOptions& opts, std::string* err = nullptr);

struct JournalStats {
  std::uint64_t recorded = 0;  // events accepted into rings this session
  std::uint64_t dropped = 0;   // events rejected by full rings this session
  std::uint64_t by_kind[kJournalKindCount] = {};
};

// Disarm, final-drain every ring, append the string table and trailer, and
// close the file. Call only when producers are quiescent (synthesize() has
// returned / the engine is idle): an event emitted concurrently with stop may
// be left behind in a ring and discarded by the next journal_start().
JournalStats journal_stop();

// Intern a string into the journal's string table; returns its stable id
// (0 for the empty string). Cheap but mutex-taking — callers cache the id.
std::uint32_t journal_intern(const std::string& s);

// Installs {job, bucket, iter} as the calling thread's journal provenance;
// restores the previous provenance (and candidate state) on destruction.
// Emission requires an active scope, so a run that opted out of journaling
// (SynthesisOptions::journal = false) simply never installs one.
class JournalScope {
 public:
  JournalScope(std::uint32_t job, std::uint32_t bucket, std::uint32_t iter);
  ~JournalScope();

  JournalScope(const JournalScope&) = delete;
  JournalScope& operator=(const JournalScope&) = delete;

 private:
  std::uint64_t prev_[6];  // opaque snapshot of the thread's journal TLS
};

// True when the calling thread is inside a JournalScope (journal armed).
bool journal_in_scope();

// --- Candidate lifecycle (refinement's score_sketch) ------------------------

// Begin a candidate: records which sketch/assignment the distance layer's
// events should attribute to and zeroes the per-candidate cell tally. Pair with journal_end_candidate().
void journal_begin_candidate(std::uint64_t sketch_hash, std::uint64_t fingerprint);
void journal_end_candidate();

// True when inside a begun candidate in an active scope — the guard the
// distance layer and eval cache use.
bool journal_in_candidate();

// The working-set segment currently being evaluated (total_distance's loop).
void journal_set_segment(std::uint32_t index);

// Read and clear the per-candidate DTW cell tally (accumulated by
// journal_record_distance), for the candidate's terminal event.
std::uint64_t journal_take_cells();

// Stable fingerprint of a hole assignment under a sketch: identical across
// runs (and across fast-path on/off) whenever the enumeration order is.
std::uint64_t journal_fingerprint(std::uint64_t sketch_hash,
                                  const std::vector<double>& assignment);

// --- Emission ---------------------------------------------------------------

// Candidate-lifecycle event (kEnumerated/kCacheHit/kEvaluated/kAbandoned):
// sketch/candidate/provenance come from the thread's state. No-op unless
// journal_in_candidate().
void journal_record_candidate(JournalKind kind, double distance, std::uint64_t cells);

// Distance-layer detail event (kLbPrune/kLbKeoghPrune/kRowAbandon/kDtwEval):
// additionally charges `cells` to the candidate tally, stamps the current
// segment, and records which DTW kernel produced it (`kernel` is the numeric
// value of distance::Simd for the resolved kernel; 0 = scalar).
// No-op unless journal_in_candidate().
void journal_record_distance(JournalKind kind, double distance, std::uint64_t cells,
                             std::uint8_t kernel = 0);

// Sketch emitted by the enumerator. No-op unless journal_in_scope().
void journal_record_sketch(std::uint64_t sketch_hash);

// Selection event: a bucket best (final = false) or the run winner
// (final = true). `detail` is an interned string id (the handler text).
// No-op unless journal_in_scope().
void journal_record_selected(std::uint64_t sketch_hash, std::uint64_t fingerprint,
                             double distance, std::uint32_t detail, bool final_winner);

// --- Live summary and export ------------------------------------------------

struct JournalSummary {
  bool enabled = false;
  std::string path;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t by_kind[kJournalKindCount] = {};
};

JournalSummary journal_summary();

// JSON rendering of journal_summary() — the StatusServer /journal route.
std::string journal_summary_json();

// When both tracing and journaling are armed, append Perfetto counter-track
// events ("search funnel" and "dtw cells") carrying the cumulative funnel on
// the calling thread's current lane. The refinement loop calls this once per
// iteration. No-op otherwise.
void journal_emit_trace_counters();

// --- Reader (abg_inspect, tests) --------------------------------------------

struct JournalFile {
  std::vector<JournalRecord> records;
  std::vector<std::string> strings;  // index = intern id; strings[0] == ""
  std::uint64_t dropped = 0;

  const std::string& str(std::uint32_t id) const {
    static const std::string empty;
    return id < strings.size() ? strings[id] : empty;
  }
};

// Parse a journal written by journal_start()/journal_stop(). False (with
// *err) on I/O failure, a bad header, or a missing/corrupt trailer.
bool read_journal(const std::string& path, JournalFile* out, std::string* err);

// Demultiplex a combined batch journal into one file per job, named
// `<path>.<job>` (job names sanitized to [A-Za-z0-9._-]). Records with no
// job attribution are skipped. Returns the paths written; on I/O failure
// stops early and reports via *err.
std::vector<std::string> split_journal_by_job(const std::string& path, std::string* err);

}  // namespace abg::obs
