// abg_inspect — forensic queries over search journals (ISSUE 6).
//
// Reads the binary journal written by `abagnale_cli --journal-out` (see
// obs/journal.hpp for the format) and answers the questions the aggregate
// metrics can't:
//
//   abg_inspect funnel j.journal [--job NAME] [--by bucket|sketch|iteration]
//                                [--check metrics.json]
//       The search funnel: sketches -> enumerated candidates -> terminal
//       outcome (cache hit / evaluated / abandoned) -> selected, grouped by
//       bucket (default), sketch, or iteration, plus the DTW-level detail
//       (LB prunes, row abandons, completed evals, cells). With --check,
//       reconciles the funnel totals against an obs metrics JSON and exits
//       nonzero on any mismatch — the CI self-check.
//
//   abg_inspect why j.journal <fingerprint>
//       Full lifecycle of one candidate (fingerprint as printed by
//       near-misses/diff, 0x-prefixed hex or decimal), in time order.
//
//   abg_inspect near-misses j.journal [--top K]
//       The K candidates (default 10) that came closest to beating the run
//       winner, with their distance gap.
//
//   abg_inspect hotspots j.journal [--by bucket|segment|kernel]
//       Where DTW cells were spent, by bucket (default), working-set segment
//       index, or the DTW kernel that burned them (scalar/avx2 — each
//       distance event is stamped with the distance::Simd kernel that ran
//       its DP, so a mixed-kernel run shows exactly which kernel did the work).
//
//   abg_inspect diff a.journal b.journal
//       Funnel deltas between two runs of the same workload (canonically:
//       fast-path vs --no-fast-path), and whether they selected the same
//       winner. Exits 1 when the winners differ.
//
// Exit: 0 ok, 1 check/diff mismatch, otherwise the usual error classes.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/journal.hpp"
#include "util/json_parse.hpp"
#include "util/status.hpp"

namespace {

using abg::obs::JournalFile;
using abg::obs::JournalKind;
using abg::obs::JournalRecord;

int usage() {
  std::fprintf(
      stderr,
      "usage: abg_inspect <command> <journal> [options]\n"
      "  funnel <j> [--job NAME] [--by bucket|sketch|iteration] [--check metrics.json]\n"
      "  why <j> <fingerprint>\n"
      "  near-misses <j> [--top K]\n"
      "  hotspots <j> [--by bucket|segment|kernel]\n"
      "  diff <a.journal> <b.journal>\n");
  return abg::util::exit_code(abg::util::StatusCode::kInvalidArgument);
}

int load(const std::string& path, JournalFile* out) {
  std::string err;
  if (!abg::obs::read_journal(path, out, &err)) {
    std::fprintf(stderr, "abg_inspect: %s: %s\n", path.c_str(), err.c_str());
    return abg::util::exit_code(abg::util::StatusCode::kIoError);
  }
  return 0;
}

bool is_kind(const JournalRecord& r, JournalKind k) {
  return r.kind == static_cast<std::uint8_t>(k);
}

// Per-group funnel tallies, one slot per JournalKind plus the cell total.
struct Funnel {
  std::uint64_t by_kind[abg::obs::kJournalKindCount] = {};
  std::uint64_t cells = 0;

  std::uint64_t operator[](JournalKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }
  void add(const JournalRecord& r) {
    ++by_kind[r.kind];
    if (is_kind(r, JournalKind::kDtwEval) || is_kind(r, JournalKind::kRowAbandon)) {
      cells += r.cells;
    }
  }
};

enum class GroupBy { kBucket, kSketch, kIteration, kSegment, kKernel };

// `allow_segment` distinguishes the two --by vocabularies: funnel groups by
// search structure (bucket/sketch/iteration), hotspots by cost location
// (bucket/segment/kernel).
bool parse_group_by(const std::string& s, GroupBy* out, bool allow_segment) {
  if (s == "bucket") {
    *out = GroupBy::kBucket;
  } else if (s == "sketch" && !allow_segment) {
    *out = GroupBy::kSketch;
  } else if (s == "iteration" && !allow_segment) {
    *out = GroupBy::kIteration;
  } else if (s == "segment" && allow_segment) {
    *out = GroupBy::kSegment;
  } else if (s == "kernel" && allow_segment) {
    *out = GroupBy::kKernel;
  } else {
    return false;
  }
  return true;
}

// Names mirror distance::Simd's numeric values; the journal stores the raw
// byte so this tool does not have to link the distance library. Byte 1 names
// a kernel since deleted, so journals written while it existed still decode.
std::string kernel_name(std::uint8_t kernel) {
  switch (kernel) {
    case 0: return "scalar";
    case 1: return "sse2";
    case 2: return "avx2";
    default: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "kernel%u", kernel);
      return buf;
    }
  }
}

std::string group_key(const JournalFile& jf, const JournalRecord& r, GroupBy by) {
  char buf[32];
  switch (by) {
    case GroupBy::kBucket: {
      const std::string& b = jf.str(r.bucket);
      return b.empty() ? "(none)" : b;
    }
    case GroupBy::kSketch:
      if (r.sketch == 0) return "(none)";
      std::snprintf(buf, sizeof(buf), "%016" PRIx64, r.sketch);
      return buf;
    case GroupBy::kIteration:
      std::snprintf(buf, sizeof(buf), "iter %u", r.iter);
      return buf;
    case GroupBy::kSegment:
      if (r.segment == abg::obs::kJournalNoSegment) return "(none)";
      std::snprintf(buf, sizeof(buf), "seg %u", r.segment);
      return buf;
    case GroupBy::kKernel:
      return kernel_name(r.kernel);
  }
  return "?";
}

// The run winner: the kSelected record flagged final, else the last kSelected.
const JournalRecord* find_winner(const JournalFile& jf) {
  const JournalRecord* last = nullptr;
  for (const auto& r : jf.records) {
    if (!is_kind(r, JournalKind::kSelected)) continue;
    if (r.flags & abg::obs::kJournalFinal) return &r;
    last = &r;
  }
  return last;
}

// --- funnel ------------------------------------------------------------------

// Flattened counter lookup from an obs metrics JSON (or a batch report
// wrapping one under "metrics"); absent counters read as 0, which is what an
// untouched counter would report anyway.
bool load_counters(const std::string& path, std::map<std::string, double>* out) {
  auto doc = abg::util::load_json(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "abg_inspect: %s\n", doc.status().to_string().c_str());
    return false;
  }
  const abg::util::JsonValue* root = &*doc;
  if (const auto* m = root->find("metrics"); m && m->find("counters")) root = m;
  const auto* counters = root->find("counters");
  if (!counters) {
    std::fprintf(stderr, "abg_inspect: %s: no \"counters\" object\n", path.c_str());
    return false;
  }
  for (const auto& [name, v] : counters->members()) {
    if (v.is_number()) (*out)[name] = v.as_double();
  }
  return true;
}

void print_funnel_row(const std::string& key, const Funnel& f) {
  std::printf("%-24s %8" PRIu64 " %10" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64
              " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %12" PRIu64 "\n",
              key.c_str(), f[JournalKind::kSketch], f[JournalKind::kEnumerated],
              f[JournalKind::kCacheHit], f[JournalKind::kEvaluated],
              f[JournalKind::kAbandoned], f[JournalKind::kSelected],
              f[JournalKind::kLbPrune], f[JournalKind::kRowAbandon],
              f[JournalKind::kDtwEval], f.cells);
}

int cmd_funnel(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string job_filter, check_path;
  GroupBy by = GroupBy::kBucket;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--job" && i + 1 < argc) {
      job_filter = argv[++i];
    } else if (flag == "--by" && i + 1 < argc) {
      if (!parse_group_by(argv[++i], &by, /*allow_segment=*/false)) return usage();
    } else if (flag == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      return usage();
    }
  }

  JournalFile jf;
  if (int rc = load(argv[2], &jf); rc != 0) return rc;

  std::map<std::string, Funnel> groups;
  Funnel total;
  for (const auto& r : jf.records) {
    if (!job_filter.empty() && jf.str(r.job) != job_filter) continue;
    groups[group_key(jf, r, by)].add(r);
    total.add(r);
  }

  std::printf("%-24s %8s %10s %9s %9s %9s %8s %8s %8s %8s %12s\n", "group", "sketches",
              "enumerated", "cachehit", "evaluated", "abandoned", "selected", "lbprune",
              "rowabn", "dtweval", "cells");
  for (const auto& [key, f] : groups) print_funnel_row(key, f);
  if (groups.size() > 1) print_funnel_row("TOTAL", total);
  if (jf.dropped > 0) {
    std::printf("note: %" PRIu64 " events dropped at record time (rings full); "
                "totals undercount\n", jf.dropped);
  }

  if (check_path.empty()) return 0;

  // Reconcile against the metrics registry. These identities hold exactly
  // when the journal covered the whole process run at sample_every=1 (the
  // default) and no events were dropped; anything else is an instrumentation
  // regression and fails CI.
  std::map<std::string, double> counters;
  if (!load_counters(check_path, &counters)) {
    return abg::util::exit_code(abg::util::StatusCode::kParseError);
  }
  int mismatches = 0;
  auto check_eq = [&mismatches](const char* what, double journal, double metrics) {
    if (journal == metrics) {
      std::printf("ok       %s: journal %.17g == metrics %.17g\n", what, journal, metrics);
    } else {
      std::printf("MISMATCH %s: journal %.17g != metrics %.17g\n", what, journal, metrics);
      ++mismatches;
    }
  };
  check_eq("enumerated vs synth.handlers_scored",
           static_cast<double>(total[JournalKind::kEnumerated]),
           counters["synth.handlers_scored"]);
  check_eq("cachehit vs synth.cache_hits", static_cast<double>(total[JournalKind::kCacheHit]),
           counters["synth.cache_hits"]);
  check_eq("cachehit+evaluated+abandoned vs enumerated",
           static_cast<double>(total[JournalKind::kCacheHit] + total[JournalKind::kEvaluated] +
                               total[JournalKind::kAbandoned]),
           static_cast<double>(total[JournalKind::kEnumerated]));
  if (jf.dropped > 0) {
    std::printf("MISMATCH dropped events: %" PRIu64 " (funnel is incomplete)\n", jf.dropped);
    ++mismatches;
  }
  return mismatches > 0 ? 1 : 0;
}

// --- why ---------------------------------------------------------------------

int cmd_why(int argc, char** argv) {
  if (argc != 4) return usage();
  char* end = nullptr;
  const std::uint64_t fp = std::strtoull(argv[3], &end, 0);
  if (end == argv[3] || *end != '\0' || fp == 0) {
    std::fprintf(stderr, "abg_inspect: bad fingerprint '%s' (decimal or 0x hex)\n", argv[3]);
    return usage();
  }
  JournalFile jf;
  if (int rc = load(argv[2], &jf); rc != 0) return rc;

  std::vector<const JournalRecord*> events;
  for (const auto& r : jf.records) {
    if (r.candidate == fp) events.push_back(&r);
  }
  if (events.empty()) {
    std::printf("no events for candidate %#" PRIx64 " (sampled out, or wrong journal?)\n", fp);
    return 1;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const JournalRecord* a, const JournalRecord* b) {
                     return a->ts_ns < b->ts_ns;
                   });
  std::printf("candidate %#" PRIx64 ": %zu events\n", fp, events.size());
  for (const auto* r : events) {
    std::printf("  %12.3fms %-11s job=%s bucket=%s iter=%u", r->ts_ns / 1e6,
                abg::obs::journal_kind_name(static_cast<JournalKind>(r->kind)),
                jf.str(r->job).empty() ? "-" : jf.str(r->job).c_str(),
                jf.str(r->bucket).empty() ? "-" : jf.str(r->bucket).c_str(), r->iter);
    if (r->segment != abg::obs::kJournalNoSegment) std::printf(" seg=%u", r->segment);
    if (std::isfinite(r->distance)) std::printf(" dist=%.6g", r->distance);
    if (r->cells > 0) std::printf(" cells=%" PRIu64, r->cells);
    if (r->detail != 0) std::printf("\n      -> %s", jf.str(r->detail).c_str());
    if (r->flags & abg::obs::kJournalFinal) std::printf("  [run winner]");
    std::printf("\n");
  }
  return 0;
}

// --- near-misses -------------------------------------------------------------

int cmd_near_misses(int argc, char** argv) {
  if (argc < 3) return usage();
  long top = 10;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--top" && i + 1 < argc) {
      top = std::strtol(argv[++i], nullptr, 10);
      if (top <= 0) return usage();
    } else {
      return usage();
    }
  }
  JournalFile jf;
  if (int rc = load(argv[2], &jf); rc != 0) return rc;

  const JournalRecord* winner = find_winner(jf);
  if (winner == nullptr) {
    std::printf("no selection events in journal (run did not complete?)\n");
    return 1;
  }

  // Best finite distance each candidate ever achieved, over its terminal
  // events. Cache hits count: the candidate was that close even if the
  // number came from the memo table.
  struct Best {
    double distance = 0.0;
    const JournalRecord* rec = nullptr;
  };
  std::map<std::uint64_t, Best> best;
  for (const auto& r : jf.records) {
    if (r.candidate == 0 || !std::isfinite(r.distance)) continue;
    if (!is_kind(r, JournalKind::kEvaluated) && !is_kind(r, JournalKind::kCacheHit)) continue;
    auto [it, fresh] = best.try_emplace(r.candidate, Best{r.distance, &r});
    if (!fresh && r.distance < it->second.distance) it->second = Best{r.distance, &r};
  }
  best.erase(winner->candidate);

  std::vector<std::pair<std::uint64_t, Best>> ranked(best.begin(), best.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.distance < b.second.distance;
  });
  if (ranked.size() > static_cast<std::size_t>(top)) ranked.resize(top);

  std::printf("winner    %#018" PRIx64 " distance %.6g (%s)\n", winner->candidate,
              winner->distance, jf.str(winner->detail).c_str());
  std::printf("%-4s %-20s %12s %12s %-16s %s\n", "#", "candidate", "distance", "gap", "sketch",
              "bucket");
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto& [fp, b] = ranked[i];
    std::printf("%-4zu %#018" PRIx64 " %12.6g %+12.6g %016" PRIx64 " %s\n", i + 1, fp,
                b.distance, b.distance - winner->distance, b.rec->sketch,
                jf.str(b.rec->bucket).c_str());
  }
  return 0;
}

// --- hotspots ----------------------------------------------------------------

int cmd_hotspots(int argc, char** argv) {
  if (argc < 3) return usage();
  GroupBy by = GroupBy::kBucket;
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--by" && i + 1 < argc) {
      if (!parse_group_by(argv[++i], &by, /*allow_segment=*/true)) return usage();
    } else {
      return usage();
    }
  }
  if (by != GroupBy::kBucket && by != GroupBy::kSegment && by != GroupBy::kKernel) return usage();

  JournalFile jf;
  if (int rc = load(argv[2], &jf); rc != 0) return rc;

  struct Spot {
    std::uint64_t cells = 0, evals = 0, row_abandons = 0, lb_prunes = 0, keogh_prunes = 0;
  };
  std::map<std::string, Spot> spots;
  std::uint64_t total_cells = 0;
  for (const auto& r : jf.records) {
    const bool costed = is_kind(r, JournalKind::kDtwEval) || is_kind(r, JournalKind::kRowAbandon);
    if (!costed && !is_kind(r, JournalKind::kLbPrune) &&
        !is_kind(r, JournalKind::kLbKeoghPrune)) {
      continue;
    }
    Spot& s = spots[group_key(jf, r, by)];
    if (is_kind(r, JournalKind::kDtwEval)) ++s.evals;
    if (is_kind(r, JournalKind::kRowAbandon)) ++s.row_abandons;
    if (is_kind(r, JournalKind::kLbPrune)) ++s.lb_prunes;
    if (is_kind(r, JournalKind::kLbKeoghPrune)) ++s.keogh_prunes;
    if (costed) {
      s.cells += r.cells;
      total_cells += r.cells;
    }
  }

  std::vector<std::pair<std::string, Spot>> ranked(spots.begin(), spots.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second.cells > b.second.cells; });
  std::printf("%-24s %14s %7s %9s %9s %9s %9s\n", "group", "cells", "share", "dtwevals",
              "rowabn", "lbprune", "lbkeogh");
  for (const auto& [key, s] : ranked) {
    const double share = total_cells > 0 ? 100.0 * s.cells / total_cells : 0.0;
    std::printf("%-24s %14" PRIu64 " %6.2f%% %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                "\n",
                key.c_str(), s.cells, share, s.evals, s.row_abandons, s.lb_prunes,
                s.keogh_prunes);
  }
  return 0;
}

// --- diff --------------------------------------------------------------------

int cmd_diff(int argc, char** argv) {
  if (argc != 4) return usage();
  JournalFile a, b;
  if (int rc = load(argv[2], &a); rc != 0) return rc;
  if (int rc = load(argv[3], &b); rc != 0) return rc;

  Funnel fa, fb;
  for (const auto& r : a.records) fa.add(r);
  for (const auto& r : b.records) fb.add(r);

  std::printf("%-12s %14s %14s %14s\n", "kind", "a", "b", "delta");
  for (std::size_t k = 0; k < abg::obs::kJournalKindCount; ++k) {
    std::printf("%-12s %14" PRIu64 " %14" PRIu64 " %+14" PRId64 "\n",
                abg::obs::journal_kind_name(static_cast<JournalKind>(k)), fa.by_kind[k],
                fb.by_kind[k],
                static_cast<std::int64_t>(fb.by_kind[k]) - static_cast<std::int64_t>(fa.by_kind[k]));
  }
  std::printf("%-12s %14" PRIu64 " %14" PRIu64 " %+14" PRId64 "\n", "cells", fa.cells, fb.cells,
              static_cast<std::int64_t>(fb.cells) - static_cast<std::int64_t>(fa.cells));

  const JournalRecord* wa = find_winner(a);
  const JournalRecord* wb = find_winner(b);
  if (wa == nullptr || wb == nullptr) {
    std::printf("DIFFER: %s journal has no selection events\n",
                wa == nullptr ? (wb == nullptr ? "neither" : "first") : "second");
    return 1;
  }
  const std::string& ha = a.str(wa->detail);
  const std::string& hb = b.str(wb->detail);
  std::printf("a selected: %s (distance %.6g, candidate %#" PRIx64 ")\n", ha.c_str(),
              wa->distance, wa->candidate);
  std::printf("b selected: %s (distance %.6g, candidate %#" PRIx64 ")\n", hb.c_str(),
              wb->distance, wb->candidate);
  if (ha != hb) {
    std::printf("DIFFER: runs selected different winners\n");
    return 1;
  }
  std::printf("winners agree\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "funnel") return cmd_funnel(argc, argv);
  if (cmd == "why") return cmd_why(argc, argv);
  if (cmd == "near-misses") return cmd_near_misses(argc, argv);
  if (cmd == "hotspots") return cmd_hotspots(argc, argv);
  if (cmd == "diff") return cmd_diff(argc, argv);
  return usage();
}
