// Tiny CSV reader/writer used for trace persistence and benchmark output.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace abg::util {

// Appends `v` exactly as printf("%.12g") formats it in the C locale
// (std::to_chars, general format, precision 12): enough digits for trace
// signals, and the same bytes on every host.
void append_number(std::string* out, double v);

// Appends one field, wrapped in quotes (inner quotes doubled) when it holds
// `sep`, '"' or '\n'.
void append_field(std::string* out, std::string_view field, char sep = ',');

// Writes rows of string fields, quoting fields that contain separators.
class CsvWriter {
 public:
  explicit CsvWriter(char sep = ',') : sep_(sep) {}

  void add_row(const std::vector<std::string>& fields);
  // Formats each value with append_number.
  void add_row_numeric(const std::vector<double>& values);

  // Serialized CSV body.
  const std::string& str() const { return out_; }

 private:
  char sep_;
  std::string out_;
};

// Splits CSV text into rows without copying it. A field is a view into the
// text, except a field that holds a quote: that one is unescaped into storage
// the reader owns, which the next call to next_row reuses. Quoted parts may
// hold separators, doubled quotes and newlines. Lines end in "\n" or "\r\n";
// any other '\r' is field text. A last line without "\n" is a row unless it
// is empty.
class CsvReader {
 public:
  explicit CsvReader(std::string_view text, char sep = ',') : text_(text), sep_(sep) {}

  // Replaces *fields with the next row's fields; false once the text is used up.
  bool next_row(std::vector<std::string_view>* fields);

 private:
  std::string_view text_;
  char sep_;
  std::size_t pos_ = 0;
  // One entry per quoted field of the current row; a deque, so that growing
  // it leaves the earlier entries (and the views into them) in place.
  std::deque<std::string> unquoted_;
};

// Checked numeric parsing: the whole field must be consumed (no trailing
// garbage) and must be non-empty. Unlike std::atof, "banana" and "" are
// rejected instead of silently producing 0. The accepted text and the value
// are strtod's: plain decimals go through std::from_chars (correctly rounded,
// as glibc strtod is), and every other form strtod takes (a leading '+' or
// whitespace, hex floats, "inf"/"nan") goes through strtod itself. Overflow is
// rejected; underflow yields strtod's denormal or zero. "nan"/"inf" parse
// successfully — rejecting non-finite values is a *validation* decision
// (trace/validate), not a lexical one.
bool parse_double(std::string_view field, double* out);
bool parse_u64(const std::string& field, std::uint64_t* out);

// Reads an entire file with one sized read. Distinguishes an unreadable file
// (false) from an empty one (true with *out empty); *out is untouched on
// failure.
bool read_file(const std::string& path, std::string* out);

}  // namespace abg::util
