// The one codec for search state. Algorithm 1 (§4.4) carries each bucket's
// state (sketch count, RNG stream, best handler) from one iteration to the
// next; this module encodes it, and everything around it, as JSON for both
// places that state leaves the process:
//
//   - the checkpoint file: synthesize() serializes its full search state
//     (iteration counter, N/k, per-bucket state, the segment sampler, every
//     candidate seen, the iteration reports) after every completed
//     iteration, durably and atomically. A killed run restarted with
//     resume=true replays from the last completed iteration and produces
//     bit-identical final results (golden-tested).
//   - the coordinator<->worker shard protocol (dist/), whose unit of
//     exchange is the same BucketCheckpoint record.
//
// Sketches are NOT serialized: the SMT enumerator is deterministic, so a
// bucket records only how many sketches it had enumerated, plus a hash of
// them, and the reader re-derives them and checks the hash. Handlers travel
// as text (dsl::to_string / dsl::parse).
// Two encoding rules keep every value bit-exact through JSON, whose numbers
// are doubles:
//
//   - doubles travel as C99 hex-float strings ("%a"), parsed back with
//     strtod; inf/nan spell themselves.
//   - u64s that can exceed 2^53 (RNG words, fingerprints, seeds, cache
//     tallies) travel as decimal strings. Counts and indices are JSON
//     numbers, read back with util::json_integer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "synth/refinement.hpp"
#include "util/json_parse.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace abg::synth {

struct BucketCheckpoint {
  std::string label;
  std::size_t sketches = 0;  // re-enumerated on resume
  // sketch_stream_hash over those sketches (0 for none), checked on resume.
  std::uint64_t stream_hash = 0;
  std::size_t handlers_scored = 0;
  bool exhausted = false;
  util::Rng::State rng;
  double best_distance = std::numeric_limits<double>::infinity();
  std::string best_sketch;   // empty = no valid best yet
  std::string best_handler;
};

struct ScoredHandlerCheckpoint {
  double distance = std::numeric_limits<double>::infinity();
  std::string sketch;
  std::string handler;
};

struct Checkpoint {
  // Guards against resuming over different inputs: both must match the
  // resuming run exactly.
  std::uint64_t pool_fingerprint = 0;  // segment_set_fingerprint(all segments)
  std::uint64_t seed = 0;              // SynthesisOptions::seed

  int next_iter = 0;  // first iteration the resumed loop should run
  int n = 0;          // N at next_iter
  int k = 0;          // k at next_iter

  ScoredHandlerCheckpoint best;  // running best across buckets
  util::Rng::State sampler_rng;
  std::vector<std::size_t> sampler_selected;
  std::vector<std::size_t> live;  // indices into the bucket-state vector
  std::vector<BucketCheckpoint> buckets;
  std::vector<ScoredHandlerCheckpoint> candidates;
  std::vector<IterationReport> iterations;
};

// Durable atomic write of one JSON document ("format": "abagnale-checkpoint
// v2"): serialize to `path + ".tmp"`, fsync, rename over `path`, fsync the
// parent directory (util::atomic_write_file). A crash mid-save leaves the
// previous checkpoint intact; after power loss the file is either the old
// checkpoint or the complete new one, never torn.
util::Status save_checkpoint(const Checkpoint& ck, const std::string& path);

// kIoError if the file cannot be read (callers treat a missing file as
// "start fresh"); kParseError on any malformed content, including a
// checkpoint in the retired tab-separated v1 format.
util::Result<Checkpoint> load_checkpoint(const std::string& path);

// --- Value codec, shared with the shard protocol. ---------------------------

// JSON value writers (the caller owns surrounding object/array structure).
void write_u64(obs::JsonWriter& w, std::uint64_t v);  // decimal string
void write_bucket_checkpoint(obs::JsonWriter& w, const BucketCheckpoint& ck);

// JSON value readers. kParseError naming the field on any malformed input —
// a truncated or hand-mangled message must reject cleanly, never wedge.
util::Status u64_from_json(const util::JsonValue& j, const char* field, std::uint64_t* out);
util::Status bucket_checkpoint_from_json(const util::JsonValue& j, BucketCheckpoint* out);

}  // namespace abg::synth
