// Minimal recursive-descent JSON reader, the input-side counterpart of
// obs::JsonWriter. Exists for the batch-manifest format consumed by
// abg::api (and abagnale_cli --batch): no external JSON dependency, strict
// parsing (trailing garbage, bare NaN/Inf, and unterminated containers are
// kParseError with a line number), and a small DOM good enough for
// configuration files — not a streaming parser for bulk data.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/result.hpp"

namespace abg::util {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool(bool fallback = false) const { return is_bool() ? bool_ : fallback; }
  double as_double(double fallback = 0.0) const { return is_number() ? num_ : fallback; }
  std::int64_t as_int(std::int64_t fallback = 0) const {
    return is_number() ? static_cast<std::int64_t>(num_) : fallback;
  }
  const std::string& as_string() const { return str_; }  // empty unless kString

  const std::vector<JsonValue>& items() const { return arr_; }  // empty unless kArray
  // Insertion-ordered object members.
  const std::vector<std::pair<std::string, JsonValue>>& members() const { return obj_; }

  // Object member by key, or nullptr (also nullptr for non-objects).
  const JsonValue* find(std::string_view key) const;

  // Construction (used by the parser and by tests).
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

// Checked integer read of a JSON number from outside the program: true and
// *out set only for a whole number within T's range. JSON numbers are
// doubles, so the range is also capped at +-2^53, where every integer is
// exact; a fraction, a non-finite value or anything wider is rejected
// instead of cast (as_int's cast is undefined behaviour out of range).
template <typename T>
bool json_integer(const JsonValue& v, T* out) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  constexpr double kExact = 9007199254740992.0;  // 2^53
  const double lo = std::max(-kExact, static_cast<double>(std::numeric_limits<T>::min()));
  const double hi = std::min(kExact, static_cast<double>(std::numeric_limits<T>::max()));
  if (!v.is_number()) return false;
  const double d = v.as_double();
  if (!(d >= lo && d <= hi) || d != std::trunc(d)) return false;  // NaN fails the range test
  *out = static_cast<T>(d);
  return true;
}

// Parse a complete JSON document. Exactly one top-level value; anything but
// trailing whitespace after it is an error. Errors carry "line N:" context.
Result<JsonValue> parse_json(std::string_view text);

// parse_json over a whole file; I/O failures are kIoError, syntax failures
// kParseError with the path in context.
Result<JsonValue> load_json(const std::string& path);

}  // namespace abg::util
