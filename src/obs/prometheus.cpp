#include "obs/prometheus.hpp"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/registry.hpp"

namespace abg::obs {

namespace {

// Prometheus metric/label names allow [a-zA-Z0-9_:]; everything else (our
// dotted names in particular) becomes '_'. A leading digit gets one too.
std::string mangle(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out.insert(out.begin(), '_');
  }
  return out;
}

// Label values escape `\`, `"`, and newline per the exposition format.
std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// `{k1="v1",k2="v2"}` or "" when unlabeled; `extra` appends one more label
// (the histogram `le`).
std::string label_block(const Labels& labels, const std::string& extra_key = {},
                        const std::string& extra_val = {}) {
  if (labels.empty() && extra_key.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += mangle(k) + "=\"" + escape_label_value(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key + "=\"" + escape_label_value(extra_val) + "\"";
  }
  out += '}';
  return out;
}

// HELP text escapes `\` and newline (exposition format 0.0.4; `"` is only
// special inside label values, not in help text).
std::string escape_help(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// Family header: an optional `# HELP` line (when the registry name was
// describe()d) followed by the `# TYPE` line, once per family. `help_name` is
// the registry name to look the help text up under — empty for synthesized
// families (the gauge "_max" mirrors) that have no registration of their own.
void family_header(std::string& out, const Snapshot& s, const std::string& family,
                   const std::string& help_name, const char* type, std::string& last_family) {
  if (family == last_family) return;
  last_family = family;
  if (!help_name.empty()) {
    if (const auto it = s.help.find(help_name); it != s.help.end()) {
      out += "# HELP " + family + " " + escape_help(it->second) + "\n";
    }
  }
  out += "# TYPE " + family + " " + type + "\n";
}

// Post-mangle collision guard. Distinct registry names can mangle to one
// family ("a.b" and "a_b" both become "abg_a_b"), and the synthesized gauge
// high-watermark family "abg_<name>_max" can collide with an explicitly
// registered "<name>_max"; either would emit duplicate # TYPE lines and
// duplicate series for one family, which strict parsers reject. Each family
// name is reserved by the first source that renders it; a later source whose
// mangled name collides gets a deterministic "_dupN" suffix instead.
struct FamilyTable {
  std::map<std::string, std::string> owner;  // family name -> source key

  std::string resolve(const std::string& base, const std::string& source) {
    std::string family = base;
    for (int n = 2;; ++n) {
      const auto [it, inserted] = owner.emplace(family, source);
      if (inserted || it->second == source) return family;
      family = base + "_dup" + std::to_string(n);
    }
  }
};

}  // namespace

std::string prometheus_text(const Snapshot& s) {
  std::string out;
  std::string last_family;
  FamilyTable families;

  for (const auto& c : s.counters) {
    const std::string family = families.resolve("abg_" + mangle(c.name), "counter:" + c.name);
    family_header(out, s, family, c.name, "counter", last_family);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, c.value);
    out += family + label_block(c.labels) + " " + buf + "\n";
  }

  last_family.clear();
  for (const auto& g : s.gauges) {
    const std::string family = families.resolve("abg_" + mangle(g.name), "gauge:" + g.name);
    family_header(out, s, family, g.name, "gauge", last_family);
    out += family + label_block(g.labels) + " " + fmt_double(g.last) + "\n";
  }
  // The high-watermark series get their own families so the TYPE lines group.
  last_family.clear();
  for (const auto& g : s.gauges) {
    const std::string family =
        families.resolve("abg_" + mangle(g.name) + "_max", "gauge_max:" + g.name);
    family_header(out, s, family, {}, "gauge", last_family);
    out += family + label_block(g.labels) + " " + fmt_double(g.max) + "\n";
  }

  last_family.clear();
  for (const auto& h : s.histograms) {
    const std::string family = families.resolve("abg_" + mangle(h.name), "hist:" + h.name);
    family_header(out, s, family, h.name, "histogram", last_family);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      char buf[32];
      std::snprintf(buf, sizeof buf, "%" PRIu64, cumulative);
      out += family + "_bucket" + label_block(h.labels, "le", fmt_double(h.bounds[i])) + " " +
             buf + "\n";
    }
    {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%" PRIu64, h.count);
      out += family + "_bucket" + label_block(h.labels, "le", "+Inf") + " " + buf + "\n";
      out += family + "_sum" + label_block(h.labels) + " " + fmt_double(h.sum) + "\n";
      out += family + "_count" + label_block(h.labels) + " " + buf + "\n";
    }
  }
  return out;
}

std::string prometheus_text() { return prometheus_text(snapshot()); }

}  // namespace abg::obs
