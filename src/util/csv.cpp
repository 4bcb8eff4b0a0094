#include "util/csv.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace abg::util {

void append_number(std::string* out, double v) {
  char buf[32];  // "%.12g" needs at most 19: -d.ddddddddddde-308
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 12);
  out->append(buf, res.ptr);
}

void append_field(std::string* out, std::string_view field, char sep) {
  const char special[] = {sep, '"', '\n'};
  if (field.find_first_of(std::string_view(special, sizeof(special))) == std::string_view::npos) {
    out->append(field);
    return;
  }
  *out += '"';
  for (const char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

void CsvWriter::add_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ += sep_;
    append_field(&out_, fields[i], sep_);
  }
  out_ += '\n';
}

void CsvWriter::add_row_numeric(const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_ += sep_;
    append_number(&out_, values[i]);
  }
  out_ += '\n';
}

bool CsvReader::next_row(std::vector<std::string_view>* fields) {
  fields->clear();
  const std::size_t n = text_.size();
  if (pos_ >= n) return false;
  std::size_t quoted_fields = 0;
  for (;;) {
    const std::size_t start = pos_;
    std::size_t i = start;
    while (i < n && text_[i] != sep_ && text_[i] != '\n' && text_[i] != '"') ++i;
    std::string_view field = text_.substr(start, i - start);
    if (i < n && text_[i] == '"') {
      if (quoted_fields == unquoted_.size()) unquoted_.emplace_back();
      std::string& s = unquoted_[quoted_fields++];
      s.assign(field);
      bool in_quotes = false;
      for (; i < n; ++i) {
        const char c = text_[i];
        if (in_quotes) {
          if (c != '"') {
            s += c;
          } else if (i + 1 < n && text_[i + 1] == '"') {
            s += '"';
            ++i;
          } else {
            in_quotes = false;
          }
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == sep_ || c == '\n') {
          break;
        } else {
          s += c;
        }
      }
      field = s;
    }
    // The '\r' of a "\r\n" line end; it lies outside any quotes, because a
    // closing quote would sit between it and the '\n'.
    if (i < n && text_[i] == '\n' && i > start && text_[i - 1] == '\r') {
      field.remove_suffix(1);
    }
    fields->push_back(field);
    pos_ = i + 1;
    if (i >= n) {
      if (fields->size() == 1 && field.empty()) {
        fields->clear();
        return false;
      }
      return true;
    }
    if (text_[i] == '\n') return true;
  }
}

bool parse_double(std::string_view field, double* out) {
  if (field.empty()) return false;
  // A finite value from from_chars came from plain decimal text, which strtod
  // reads the same way and rounds the same way (both round correctly). The
  // rest, including "inf"/"nan" (whose sign and payload strtod defines),
  // overflow and underflow, is left to strtod so that both report alike.
  double v = 0.0;
  const auto res = std::from_chars(field.data(), field.data() + field.size(), v);
  if (res.ec == std::errc() && res.ptr == field.data() + field.size() && std::isfinite(v)) {
    *out = v;
    return true;
  }
  const std::string text(field);
  errno = 0;
  char* end = nullptr;
  v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;  // trailing garbage / empty
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) return false;
  *out = v;
  return true;
}

bool parse_u64(const std::string& field, std::uint64_t* out) {
  if (field.empty() || field[0] == '-' || field[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(field.c_str(), &end, 10);
  if (end != field.c_str() + field.size()) return false;
  if (errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  const bool sized = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0;
  std::string data(sized ? static_cast<std::size_t>(st.st_size) : 0, '\0');
  // Fill the sized buffer, then read on until end of file in case the file
  // grew (or has no size, like a pipe).
  std::size_t got = 0;
  char more[4096];
  bool ok = true;
  for (;;) {
    const bool in_buffer = got < data.size();
    const ssize_t r = in_buffer ? ::read(fd, data.data() + got, data.size() - got)
                                : ::read(fd, more, sizeof(more));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      ok = r == 0;
      break;
    }
    if (in_buffer) {
      got += static_cast<std::size_t>(r);
    } else {
      data.append(more, static_cast<std::size_t>(r));
      got = data.size();
    }
  }
  ::close(fd);
  if (!ok) return false;
  data.resize(got);
  *out = std::move(data);
  return true;
}

}  // namespace abg::util
