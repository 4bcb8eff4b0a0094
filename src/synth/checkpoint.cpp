#include "synth/checkpoint.hpp"

#include <cmath>
#include <cstdio>

#include "util/csv.hpp"
#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"

namespace abg::synth {

namespace {

using util::JsonValue;
using util::Status;
using util::StatusCode;

constexpr const char* kFormat = "abagnale-checkpoint v2";

Status bad(const std::string& msg) { return Status(StatusCode::kParseError, msg); }

// "%a" rendering; "inf"/"-inf"/"nan" for non-finite (strtod-parseable).
std::string hex_double(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void write_double(obs::JsonWriter& w, double v) { w.value(hex_double(v)); }

void write_rng_state(obs::JsonWriter& w, const util::Rng::State& st) {
  w.begin_array();
  for (std::uint64_t word : st.s) write_u64(w, word);
  w.value(st.have_cached_normal ? "1" : "0");
  write_double(w, st.cached_normal);
  w.end_array();
}

Status double_from_json(const JsonValue& j, const char* field, double* out) {
  if (!j.is_string() || !util::parse_double(j.as_string(), out)) {
    return bad(std::string("'") + field + "' must be a hex-float string");
  }
  return Status::ok();
}

Status rng_state_from_json(const JsonValue& j, util::Rng::State* out) {
  if (!j.is_array() || j.items().size() != 6) {
    return bad("'rng' must be a 6-element array");
  }
  util::Rng::State st;
  for (int i = 0; i < 4; ++i) {
    if (auto s = u64_from_json(j.items()[static_cast<std::size_t>(i)], "rng", &st.s[i]);
        !s.is_ok()) {
      return s;
    }
  }
  const auto& flag = j.items()[4];
  if (!flag.is_string() || (flag.as_string() != "0" && flag.as_string() != "1")) {
    return bad("'rng' cached-normal flag must be \"0\" or \"1\"");
  }
  st.have_cached_normal = flag.as_string() == "1";
  if (auto s = double_from_json(j.items()[5], "rng", &st.cached_normal); !s.is_ok()) return s;
  *out = st;
  return Status::ok();
}

// Object members, one per call: the key, then the value in the codec's
// encoding for its type.
void put_text(obs::JsonWriter& w, const char* key, std::string_view v) {
  w.key(key);
  w.value(v);
}
void put_flag(obs::JsonWriter& w, const char* key, bool v) {
  w.key(key);
  w.value(v);
}
void put_int(obs::JsonWriter& w, const char* key, std::int64_t v) {
  w.key(key);
  w.value(v);
}
void put_count(obs::JsonWriter& w, const char* key, std::uint64_t v) {
  w.key(key);
  w.value(v);
}
void put_u64(obs::JsonWriter& w, const char* key, std::uint64_t v) {
  w.key(key);
  write_u64(w, v);
}
void put_hex(obs::JsonWriter& w, const char* key, double v) {
  w.key(key);
  write_double(w, v);
}

// Reads the members of one JSON object in a row and keeps the first failure,
// so a record is checked once after all of its fields are read.
class Fields {
 public:
  explicit Fields(const JsonValue& obj) : obj_(obj) {
    if (!obj.is_object()) status_ = bad("expected a JSON object");
  }

  const Status& status() const { return status_; }

  void text(const char* key, std::string* out) {
    const JsonValue& v = get(key);
    if (expect(v.is_string(), key, "a string")) *out = v.as_string();
  }
  void flag(const char* key, bool* out) {
    const JsonValue& v = get(key);
    if (expect(v.is_bool(), key, "a bool")) *out = v.as_bool();
  }
  // A JSON number; only whole values within T's range are accepted.
  template <typename T>
  void integer(const char* key, T* out) {
    T v{};
    if (expect(util::json_integer(get(key), &v), key, "an integer in range")) *out = v;
  }
  void u64(const char* key, std::uint64_t* out) {
    if (status_.is_ok()) status_ = u64_from_json(get(key), key, out);
  }
  void hex(const char* key, double* out) {
    if (status_.is_ok()) status_ = double_from_json(get(key), key, out);
  }
  // A nested value that decodes through `read(value, out)`.
  template <typename T, typename Read>
  void record(const char* key, T* out, Read read) {
    if (status_.is_ok()) status_ = read(get(key), out);
  }
  // An array whose items decode through `read(item, &elem)`.
  template <typename T, typename Read>
  void list(const char* key, std::vector<T>* out, Read read) {
    const JsonValue& v = get(key);
    if (!expect(v.is_array(), key, "an array")) return;
    for (const auto& item : v.items()) {
      T elem{};
      status_ = read(item, &elem);
      if (!status_.is_ok()) return;
      out->push_back(std::move(elem));
    }
  }

 private:
  const JsonValue& get(const char* key) const {
    static const JsonValue kMissing;
    const JsonValue* v = obj_.find(key);
    return v != nullptr ? *v : kMissing;
  }
  bool expect(bool ok, const char* key, const char* what) {
    if (status_.is_ok() && !ok) status_ = bad(std::string("'") + key + "' must be " + what);
    return status_.is_ok();
  }

  const JsonValue& obj_;
  Status status_;
};

}  // namespace

// --- Value codec. ------------------------------------------------------------

void write_u64(obs::JsonWriter& w, std::uint64_t v) { w.value(std::to_string(v)); }

void write_bucket_checkpoint(obs::JsonWriter& w, const BucketCheckpoint& ck) {
  w.begin_object();
  put_text(w, "label", ck.label);
  put_count(w, "sketches", ck.sketches);
  put_u64(w, "stream_hash", ck.stream_hash);
  put_count(w, "handlers_scored", ck.handlers_scored);
  put_flag(w, "exhausted", ck.exhausted);
  w.key("rng");
  write_rng_state(w, ck.rng);
  put_hex(w, "best_distance", ck.best_distance);
  put_text(w, "best_sketch", ck.best_sketch);
  put_text(w, "best_handler", ck.best_handler);
  w.end_object();
}

util::Status u64_from_json(const JsonValue& j, const char* field, std::uint64_t* out) {
  if (!j.is_string() || !util::parse_u64(j.as_string(), out)) {
    return bad(std::string("'") + field + "' must be a decimal-string u64");
  }
  return Status::ok();
}

util::Status bucket_checkpoint_from_json(const JsonValue& j, BucketCheckpoint* out) {
  BucketCheckpoint ck;
  Fields f(j);
  f.text("label", &ck.label);
  f.integer("sketches", &ck.sketches);
  f.u64("stream_hash", &ck.stream_hash);
  f.integer("handlers_scored", &ck.handlers_scored);
  f.flag("exhausted", &ck.exhausted);
  f.record("rng", &ck.rng, rng_state_from_json);
  f.hex("best_distance", &ck.best_distance);
  f.text("best_sketch", &ck.best_sketch);
  f.text("best_handler", &ck.best_handler);
  if (!f.status().is_ok()) return f.status();
  if (ck.label.empty()) return bad("'label' must be a non-empty string");
  *out = std::move(ck);
  return Status::ok();
}

// --- Checkpoint file. --------------------------------------------------------

namespace {

void write_scored(obs::JsonWriter& w, const ScoredHandlerCheckpoint& c) {
  w.begin_object();
  put_hex(w, "distance", c.distance);
  put_text(w, "sketch", c.sketch);
  put_text(w, "handler", c.handler);
  w.end_object();
}

void write_iteration_report(obs::JsonWriter& w, const IterationReport& it) {
  w.begin_object();
  put_int(w, "n_target", it.n_target);
  put_int(w, "keep", it.keep);
  put_count(w, "segments_used", it.segments_used);
  put_hex(w, "seconds", it.seconds);
  put_hex(w, "best_distance", it.best_distance);
  put_u64(w, "cache_hits", it.cache_hits);
  put_u64(w, "cache_misses", it.cache_misses);
  w.key("buckets");
  w.begin_array();
  for (const auto& br : it.buckets) {
    w.begin_object();
    put_text(w, "label", br.label);
    put_hex(w, "score", br.score);
    put_count(w, "sketches_enumerated", br.sketches_enumerated);
    put_count(w, "handlers_scored", br.handlers_scored);
    put_flag(w, "exhausted", br.exhausted);
    put_flag(w, "retained", br.retained);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

template <typename T, typename Write>
void put_list(obs::JsonWriter& w, const char* key, const std::vector<T>& items, Write write) {
  w.key(key);
  w.begin_array();
  for (const auto& item : items) write(w, item);
  w.end_array();
}

void write_index(obs::JsonWriter& w, std::size_t idx) { w.value(static_cast<std::uint64_t>(idx)); }

Status index_from_json(const JsonValue& j, std::size_t* out) {
  return util::json_integer(j, out) ? Status::ok() : bad("index must be a non-negative integer");
}

Status scored_from_json(const JsonValue& j, ScoredHandlerCheckpoint* out) {
  Fields f(j);
  f.hex("distance", &out->distance);
  f.text("sketch", &out->sketch);
  f.text("handler", &out->handler);
  return f.status();
}

Status bucket_report_from_json(const JsonValue& j, BucketReport* out) {
  Fields f(j);
  f.text("label", &out->label);
  f.hex("score", &out->score);
  f.integer("sketches_enumerated", &out->sketches_enumerated);
  f.integer("handlers_scored", &out->handlers_scored);
  f.flag("exhausted", &out->exhausted);
  f.flag("retained", &out->retained);
  return f.status();
}

Status iteration_report_from_json(const JsonValue& j, IterationReport* out) {
  Fields f(j);
  f.integer("n_target", &out->n_target);
  f.integer("keep", &out->keep);
  f.integer("segments_used", &out->segments_used);
  f.hex("seconds", &out->seconds);
  f.hex("best_distance", &out->best_distance);
  f.u64("cache_hits", &out->cache_hits);
  f.u64("cache_misses", &out->cache_misses);
  f.list("buckets", &out->buckets, bucket_report_from_json);
  return f.status();
}

}  // namespace

util::Status save_checkpoint(const Checkpoint& ck, const std::string& path) {
  if (util::fault::io_fail("checkpoint.save")) {
    return Status(StatusCode::kIoError, "injected I/O fault writing " + path);
  }
  obs::JsonWriter w;
  w.begin_object();
  put_text(w, "format", kFormat);
  put_u64(w, "pool_fingerprint", ck.pool_fingerprint);
  put_u64(w, "seed", ck.seed);
  put_int(w, "next_iter", ck.next_iter);
  put_int(w, "n", ck.n);
  put_int(w, "k", ck.k);
  w.key("best");
  write_scored(w, ck.best);
  w.key("sampler_rng");
  write_rng_state(w, ck.sampler_rng);
  put_list(w, "sampler_selected", ck.sampler_selected, write_index);
  put_list(w, "live", ck.live, write_index);
  put_list(w, "buckets", ck.buckets, write_bucket_checkpoint);
  put_list(w, "candidates", ck.candidates, write_scored);
  put_list(w, "iterations", ck.iterations, write_iteration_report);
  w.end_object();

  // Durable, not just atomic: the file is fsync'd before the rename and the
  // parent directory after it, so a checkpoint the serve WAL points at can
  // never be a torn or absent file after power loss.
  return util::atomic_write_file(path, w.take(), /*durable=*/true);
}

util::Result<Checkpoint> load_checkpoint(const std::string& path) {
  if (util::fault::io_fail("checkpoint.load")) {
    return Status(StatusCode::kIoError, "injected I/O fault reading " + path);
  }
  std::string content;
  if (!util::read_file(path, &content)) {
    return Status(StatusCode::kIoError, "cannot read " + path);
  }
  if (content.rfind("abagnale-checkpoint v1", 0) == 0) {
    return bad(std::string("tab-separated abagnale-checkpoint v1 file; this build reads only ") +
               kFormat)
        .with_context(path);
  }
  auto doc = util::parse_json(content);
  if (!doc.ok()) return doc.status().with_context(path);
  const JsonValue* format = doc->find("format");
  if (format == nullptr || !format->is_string() || format->as_string() != kFormat) {
    return bad(std::string("not an ") + kFormat + " document").with_context(path);
  }

  Checkpoint ck;
  Fields f(*doc);
  f.u64("pool_fingerprint", &ck.pool_fingerprint);
  f.u64("seed", &ck.seed);
  f.integer("next_iter", &ck.next_iter);
  f.integer("n", &ck.n);
  f.integer("k", &ck.k);
  f.record("best", &ck.best, scored_from_json);
  f.record("sampler_rng", &ck.sampler_rng, rng_state_from_json);
  f.list("sampler_selected", &ck.sampler_selected, index_from_json);
  f.list("live", &ck.live, index_from_json);
  f.list("buckets", &ck.buckets, bucket_checkpoint_from_json);
  f.list("candidates", &ck.candidates, scored_from_json);
  f.list("iterations", &ck.iterations, iteration_report_from_json);
  if (!f.status().is_ok()) return f.status().with_context(path);
  return ck;
}

}  // namespace abg::synth
