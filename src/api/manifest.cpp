#include "api/manifest.hpp"

#include <limits>
#include <set>
#include <utility>

#include "obs/json.hpp"
#include "util/csv.hpp"
#include "util/json_parse.hpp"

namespace abg::api {

namespace {

util::Status bad(const std::string& msg) {
  return util::Status(util::StatusCode::kInvalidArgument, msg);
}

// Typed field extraction. Each setter returns kInvalidArgument naming the key
// on a type mismatch; absent keys leave the default untouched.
util::Status read_int(const util::JsonValue& obj, const std::string& key, int* out) {
  const auto* v = obj.find(key);
  if (!v) return util::Status::ok();
  if (!util::json_integer(*v, out)) return bad("'" + key + "' must be an integer in int range");
  return util::Status::ok();
}

util::Status read_size(const util::JsonValue& obj, const std::string& key, std::size_t* out) {
  const auto* v = obj.find(key);
  if (!v) return util::Status::ok();
  if (!util::json_integer(*v, out)) return bad("'" + key + "' must be a non-negative integer");
  return util::Status::ok();
}

util::Status read_double(const util::JsonValue& obj, const std::string& key, double* out) {
  const auto* v = obj.find(key);
  if (!v) return util::Status::ok();
  if (!v->is_number()) return bad("'" + key + "' must be a number");
  *out = v->as_double();
  return util::Status::ok();
}

util::Status read_bool(const util::JsonValue& obj, const std::string& key, bool* out) {
  const auto* v = obj.find(key);
  if (!v) return util::Status::ok();
  if (!v->is_bool()) return bad("'" + key + "' must be true or false");
  *out = v->as_bool();
  return util::Status::ok();
}

util::Status read_string(const util::JsonValue& obj, const std::string& key, std::string* out) {
  const auto* v = obj.find(key);
  if (!v) return util::Status::ok();
  if (!v->is_string()) return bad("'" + key + "' must be a string");
  *out = v->as_string();
  return util::Status::ok();
}

const std::set<std::string>& known_job_keys() {
  static const std::set<std::string> keys = {
      "name",          "traces",         "kind",
      "dsl",           "timeout_s",      "seed",
      "metric",        "max_iterations", "initial_samples",
      "concretize_budget", "max_depth",  "max_nodes",
      "max_holes",     "warmup_s",       "min_segment_samples",
      "fast_path",     "repair_traces",  "checkpoint",
      "resume",        "journal",
      // Search-shape knobs the distributed worker protocol must carry so a
      // shard searches exactly what the submitting process would (ISSUE 9).
      "initial_keep",  "initial_segments", "final_validation_segments",
      "sample_growth", "exhaustive_cap", "unit_check"};
  return keys;
}

}  // namespace

util::Status spec_from_json(const util::JsonValue& j, JobSpec* spec) {
  if (!j.is_object()) return bad("job entry must be an object");
  for (const auto& [key, value] : j.members()) {
    (void)value;
    if (!known_job_keys().count(key)) return bad("unknown job key '" + key + "'");
  }

  // Batch jobs start from the same defaults as `abagnale_cli synthesize`, so
  // a manifest entry and the equivalent single-job invocation agree.
  auto& synth = spec->pipeline.synth;
  synth.initial_samples = 8;
  synth.concretize_budget = 24;
  synth.max_depth = 4;
  synth.max_nodes = 9;
  synth.max_holes = 3;
  synth.dopts.max_points = 128;
  synth.timeout_s = 120.0;

  if (auto st = read_string(j, "name", &spec->name); !st.is_ok()) return st;

  const auto* traces = j.find("traces");
  if (!traces || !traces->is_array() || traces->items().empty()) {
    return bad("'traces' must be a non-empty array of CSV paths");
  }
  for (const auto& t : traces->items()) {
    if (!t.is_string() || t.as_string().empty()) {
      return bad("'traces' entries must be non-empty strings");
    }
    spec->trace_paths.push_back(t.as_string());
  }

  std::string kind = "pipeline";
  if (auto st = read_string(j, "kind", &kind); !st.is_ok()) return st;
  if (kind == "pipeline") {
    spec->kind = JobSpec::Kind::kPipeline;
  } else if (kind == "mister880") {
    spec->kind = JobSpec::Kind::kMister880;
  } else {
    return bad("'kind' must be \"pipeline\" or \"mister880\", got \"" + kind + "\"");
  }

  std::string dsl;
  if (auto st = read_string(j, "dsl", &dsl); !st.is_ok()) return st;
  if (!dsl.empty()) spec->pipeline.dsl_override = dsl;

  std::string metric;
  if (auto st = read_string(j, "metric", &metric); !st.is_ok()) return st;
  if (!metric.empty()) {
    if (metric == "dtw") {
      synth.metric = distance::Metric::kDtw;
    } else if (metric == "euclidean") {
      synth.metric = distance::Metric::kEuclidean;
    } else {
      return bad("'metric' must be \"dtw\" or \"euclidean\", got \"" + metric + "\"");
    }
  }

  // "timeout_s": null = no deadline (JSON has no infinity literal; the
  // serializer emits null for an infinite deadline).
  if (const auto* v = j.find("timeout_s")) {
    if (v->is_null()) {
      synth.timeout_s = std::numeric_limits<double>::infinity();
    } else if (!v->is_number()) {
      return bad("'timeout_s' must be a number or null (null = no deadline)");
    } else {
      synth.timeout_s = v->as_double();
    }
  }
  // "seed": a decimal string carries the full u64 range; a JSON number is
  // also accepted (legacy manifests) up to 2^53, where doubles stop being
  // exact integers.
  if (const auto* v = j.find("seed")) {
    const bool ok = v->is_string() ? util::parse_u64(v->as_string(), &synth.seed)
                                   : util::json_integer(*v, &synth.seed);
    if (!ok) return bad("'seed' must be a u64 (number up to 2^53 or decimal string)");
  }
  if (auto st = read_int(j, "max_iterations", &synth.max_iterations); !st.is_ok()) return st;
  if (auto st = read_int(j, "initial_samples", &synth.initial_samples); !st.is_ok()) return st;
  if (auto st = read_size(j, "concretize_budget", &synth.concretize_budget); !st.is_ok()) return st;
  // "max_depth"/"max_nodes": null = unbounded (std::nullopt); absent keeps
  // the manifest-dialect defaults above.
  if (const auto* v = j.find("max_depth"); v && v->is_null()) {
    synth.max_depth.reset();
  } else {
    int depth = *synth.max_depth;
    if (auto st = read_int(j, "max_depth", &depth); !st.is_ok()) return st;
    synth.max_depth = depth;
  }
  if (const auto* v = j.find("max_nodes"); v && v->is_null()) {
    synth.max_nodes.reset();
  } else {
    int nodes = *synth.max_nodes;
    if (auto st = read_int(j, "max_nodes", &nodes); !st.is_ok()) return st;
    synth.max_nodes = nodes;
  }
  if (auto st = read_int(j, "max_holes", &synth.max_holes); !st.is_ok()) return st;
  if (auto st = read_int(j, "initial_keep", &synth.initial_keep); !st.is_ok()) return st;
  if (auto st = read_int(j, "initial_segments", &synth.initial_segments); !st.is_ok()) return st;
  if (auto st = read_size(j, "final_validation_segments", &synth.final_validation_segments);
      !st.is_ok()) {
    return st;
  }
  if (auto st = read_int(j, "sample_growth", &synth.sample_growth); !st.is_ok()) return st;
  if (auto st = read_size(j, "exhaustive_cap", &synth.exhaustive_cap); !st.is_ok()) return st;
  if (auto st = read_bool(j, "unit_check", &synth.unit_check); !st.is_ok()) return st;
  if (auto st = read_double(j, "warmup_s", &spec->pipeline.warmup_s); !st.is_ok()) return st;
  if (auto st = read_size(j, "min_segment_samples", &spec->pipeline.min_segment_samples);
      !st.is_ok()) {
    return st;
  }

  bool fast_path = true;
  if (auto st = read_bool(j, "fast_path", &fast_path); !st.is_ok()) return st;
  synth.use_eval_cache = fast_path;
  synth.early_abandon = fast_path;

  if (auto st = read_bool(j, "repair_traces", &spec->load.repair); !st.is_ok()) return st;
  if (auto st = read_string(j, "checkpoint", &synth.checkpoint_path); !st.is_ok()) return st;
  if (auto st = read_bool(j, "resume", &synth.resume); !st.is_ok()) return st;
  // "journal": false opts this job out of an armed search-forensics journal
  // (abagnale_cli --journal-out); the default participates.
  if (auto st = read_bool(j, "journal", &synth.journal); !st.is_ok()) return st;

  return util::Status::ok();
}

util::Result<JobSpec> spec_from_json(std::string_view json_text) {
  auto doc = util::parse_json(json_text);
  if (!doc.ok()) return doc.status();
  JobSpec spec;
  if (auto st = spec_from_json(*doc, &spec); !st.is_ok()) return st;
  return spec;
}

std::string spec_to_json(const JobSpec& spec) {
  const auto& synth = spec.pipeline.synth;
  obs::JsonWriter w;
  w.begin_object();
  if (!spec.name.empty()) {
    w.key("name");
    w.value(spec.name);
  }
  w.key("traces");
  w.begin_array();
  for (const auto& p : spec.trace_paths) w.value(p);
  w.end_array();
  w.key("kind");
  w.value(spec.kind == JobSpec::Kind::kMister880 ? "mister880" : "pipeline");
  if (spec.pipeline.dsl_override) {
    w.key("dsl");
    w.value(*spec.pipeline.dsl_override);
  }
  w.key("metric");
  w.value(synth.metric == distance::Metric::kEuclidean ? "euclidean" : "dtw");
  // JsonWriter renders a non-finite double as null, which is exactly the
  // dialect's "no deadline" spelling.
  w.key("timeout_s");
  w.value(synth.timeout_s);
  // Decimal string, not a JSON number: doubles can't carry a full u64, and
  // the seed must survive the coordinator→worker wire bit-exactly.
  w.key("seed");
  w.value(std::to_string(synth.seed));
  w.key("max_iterations");
  w.value(static_cast<std::int64_t>(synth.max_iterations));
  w.key("initial_samples");
  w.value(static_cast<std::int64_t>(synth.initial_samples));
  w.key("concretize_budget");
  w.value(static_cast<std::uint64_t>(synth.concretize_budget));
  w.key("max_depth");
  if (synth.max_depth) {
    w.value(static_cast<std::int64_t>(*synth.max_depth));
  } else {
    w.raw("null");
  }
  w.key("max_nodes");
  if (synth.max_nodes) {
    w.value(static_cast<std::int64_t>(*synth.max_nodes));
  } else {
    w.raw("null");
  }
  w.key("max_holes");
  w.value(static_cast<std::int64_t>(synth.max_holes));
  w.key("initial_keep");
  w.value(static_cast<std::int64_t>(synth.initial_keep));
  w.key("initial_segments");
  w.value(static_cast<std::int64_t>(synth.initial_segments));
  w.key("final_validation_segments");
  w.value(static_cast<std::uint64_t>(synth.final_validation_segments));
  w.key("sample_growth");
  w.value(static_cast<std::int64_t>(synth.sample_growth));
  w.key("exhaustive_cap");
  w.value(static_cast<std::uint64_t>(synth.exhaustive_cap));
  w.key("unit_check");
  w.value(synth.unit_check);
  w.key("warmup_s");
  w.value(spec.pipeline.warmup_s);
  w.key("min_segment_samples");
  w.value(static_cast<std::uint64_t>(spec.pipeline.min_segment_samples));
  w.key("fast_path");
  w.value(synth.use_eval_cache && synth.early_abandon);
  w.key("repair_traces");
  w.value(spec.load.repair);
  if (!synth.checkpoint_path.empty()) {
    w.key("checkpoint");
    w.value(synth.checkpoint_path);
  }
  w.key("resume");
  w.value(synth.resume);
  w.key("journal");
  w.value(synth.journal);
  w.end_object();
  return w.take();
}

void job_result_to_json(obs::JsonWriter& w, const JobResult& r) {
  w.key("kind");
  w.value(r.kind == JobSpec::Kind::kMister880 ? "mister880" : "pipeline");
  w.key("status");
  w.value(r.status.to_string());
  w.key("exit_class");
  w.value(static_cast<std::int64_t>(r.exit_class()));
  w.key("found");
  w.value(r.found());
  if (r.kind == JobSpec::Kind::kPipeline && r.found()) {
    w.key("dsl");
    w.value(r.pipeline.dsl_name);
    w.key("handler");
    w.value(r.pipeline.handler_string());
    w.key("distance");
    w.value(r.pipeline.distance());
  }
  w.key("segments_total");
  w.value(static_cast<std::uint64_t>(r.segments_total));
  w.key("cache_hits");
  w.value(r.cache_hits);
  w.key("cache_misses");
  w.value(r.cache_misses);
  w.key("seconds");
  w.value(r.seconds);
  // Per-iteration convergence series: plotting a paper-style search-progress
  // curve needs only this.
  w.key("convergence");
  w.begin_array();
  for (const auto& p : r.convergence) {
    w.begin_object();
    w.key("iteration");
    w.value(static_cast<std::int64_t>(p.iteration));
    w.key("best_distance");
    w.value(p.best_distance);
    w.key("wall_ms");
    w.value(p.wall_ms);
    w.end_object();
  }
  w.end_array();
}

namespace {

util::Result<Manifest> parse_manifest_doc(const util::JsonValue& doc) {
  if (!doc.is_object()) return bad("manifest must be a JSON object");

  static const std::set<std::string> top_keys = {"threads", "max_concurrent_jobs", "report",
                                                "jobs"};
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (!top_keys.count(key)) return bad("unknown manifest key '" + key + "'");
  }

  Manifest m;
  if (auto st = read_size(doc, "threads", &m.engine.threads); !st.is_ok()) return st;
  if (auto st = read_size(doc, "max_concurrent_jobs", &m.engine.max_concurrent_jobs);
      !st.is_ok()) {
    return st;
  }
  if (auto st = read_string(doc, "report", &m.report_path); !st.is_ok()) return st;

  const auto* jobs = doc.find("jobs");
  if (!jobs || !jobs->is_array() || jobs->items().empty()) {
    return bad("'jobs' must be a non-empty array");
  }
  m.jobs.reserve(jobs->items().size());
  for (std::size_t i = 0; i < jobs->items().size(); ++i) {
    JobSpec spec;
    if (auto st = spec_from_json(jobs->items()[i], &spec); !st.is_ok()) {
      return st.with_context("jobs[" + std::to_string(i) + "]");
    }
    m.jobs.push_back(std::move(spec));
  }
  return m;
}

}  // namespace

util::Result<Manifest> parse_manifest(std::string_view json_text) {
  auto doc = util::parse_json(json_text);
  if (!doc.ok()) return doc.status();
  return parse_manifest_doc(*doc);
}

util::Result<JobSpec> parse_job_spec(std::string_view json_text) {
  return spec_from_json(json_text);
}

util::Result<Manifest> load_manifest(const std::string& path) {
  auto doc = util::load_json(path);
  if (!doc.ok()) return doc.status();
  return parse_manifest_doc(*doc).with_context(path);
}

}  // namespace abg::api
