// Batch manifest loader: turns a JSON sweep description into EngineOptions +
// a vector of JobSpecs for `abagnale_cli --batch manifest.json`. Shape:
//
//   {
//     "threads": 8,                  // optional, 0/absent = hardware
//     "max_concurrent_jobs": 4,     // optional, 0/absent = min(4, threads)
//     "share_eval_cache": true,     // optional, default true
//     "report": "report.json",      // optional consolidated-report path
//     "jobs": [
//       {
//         "name": "reno",           // optional, auto "job-N"
//         "traces": ["a.csv", ...], // required
//         "kind": "pipeline",       // or "mister880"; default pipeline
//         "dsl": "reno",            // optional forced sub-DSL
//         "timeout_s": 120,         // null = no deadline
//         "seed": "7",              // u64; decimal string or number
//         "metric": "dtw" | "euclidean",
//         "max_iterations": 6, "initial_samples": 16,
//         "concretize_budget": 24,
//         "max_depth": 4, "max_nodes": 9,   // null = unbounded
//         "max_holes": 3, "warmup_s": 2.0, "min_segment_samples": 20,
//         "fast_path": true, "repair_traces": false,
//         "checkpoint": "state.bin", "resume": false,
//         "journal": true,          // participate in --journal-out recording
//         "initial_keep": 4, "initial_segments": 2,
//         "final_validation_segments": 0, "sample_growth": 2,
//         "exhaustive_cap": 20000, "unit_check": true
//       }, ...
//     ]
//   }
//
// Unknown keys are rejected (a typoed budget silently using the default is
// exactly the kind of sweep bug a manifest exists to prevent). That includes
// "simd": the DTW kernel is a property of the process (ABG_SIMD), not of a job.
#pragma once

#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/job.hpp"
#include "obs/json.hpp"
#include "util/json_parse.hpp"
#include "util/result.hpp"

namespace abg::api {

struct Manifest {
  EngineOptions engine;
  std::vector<JobSpec> jobs;
  // Consolidated JSON run-report path; empty = no report file.
  std::string report_path;
};

// Parse a manifest from JSON text. Structural and type errors come back as
// kParseError / kInvalidArgument naming the offending job and key; JobSpec
// validation itself happens later at Engine::submit.
util::Result<Manifest> parse_manifest(std::string_view json_text);

// Parse one job-entry object (the element shape of the manifest's "jobs"
// array) from JSON text. This is the body format of `POST /jobs` in the
// serve daemon (ISSUE 8): the exact same keys and defaults as a manifest
// entry, so a job moves between batch and service submission unchanged.
util::Result<JobSpec> parse_job_spec(std::string_view json_text);

// --- The canonical JobSpec codec (ISSUE 9). --------------------------------
// Every surface that accepts a job — `abagnale_cli synthesize` flags, batch
// manifest entries, POST /v1/jobs bodies, and the coordinator→worker shard
// protocol — parses through spec_from_json and serializes through
// spec_to_json. One dialect, one set of defaults, one unknown-key rejection
// (kInvalidArgument naming the field).
//
// spec_to_json emits every knob explicitly (including the codec defaults),
// so spec_from_json(spec_to_json(s)) reproduces s exactly for any spec the
// dialect can express. timeout_s serializes as null when infinite and null
// parses back to infinity; max_depth/max_nodes serialize as null when
// unbounded. seed serializes as a decimal string (a JSON double cannot carry
// a full u64 bit-exactly; numbers are still accepted on parse for legacy
// manifests, up to 2^53). fast_path collapses the two work-saving knobs
// (use_eval_cache / early_abandon: no memo cache and no early abandon when
// false) to their conjunction, as the parse side fans one key into both.
util::Status spec_from_json(const util::JsonValue& j, JobSpec* spec);
util::Result<JobSpec> spec_from_json(std::string_view json_text);
std::string spec_to_json(const JobSpec& spec);

// The one JobResult shape: its fields (kind, status, exit_class, found, the
// winner's dsl/handler/distance when found, segments_total, cache traffic,
// seconds, convergence) written into the JSON object the caller has opened,
// so each surface adds only its own keys — the service's id/partial, the
// batch report's name.
void job_result_to_json(obs::JsonWriter& w, const JobResult& r);

// Load + parse a manifest file.
util::Result<Manifest> load_manifest(const std::string& path);

}  // namespace abg::api
