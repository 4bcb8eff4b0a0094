#include "distance/simd.hpp"

#include <cstdlib>

#include "obs/report.hpp"
#include "util/log.hpp"

namespace abg::distance {

namespace {

// An explicit kernel if the host can run it, else scalar.
Simd available_or_scalar(Simd s) {
  if (simd_available(s)) return s;
  ABG_WARN_ONCE("simd_fallback", "DTW kernel %s unavailable on this CPU; falling back to scalar",
                simd_name(s));
  return Simd::kScalar;
}

// The process kernel: ABG_SIMD, else the best the CPU runs. Resolved once
// (neither the env nor the CPU changes mid-run) and stamped into the report
// meta at the same time, so abg_report can refuse cross-kernel comparisons.
Simd process_kernel() {
  static const Simd v = [] {
    Simd want = Simd::kAuto;
    if (const char* e = std::getenv("ABG_SIMD"); e != nullptr && *e != '\0') {
      if (const auto parsed = parse_simd(e)) {
        want = *parsed;
      } else {
        ABG_WARN("ABG_SIMD=%s is not scalar|avx2|auto; using auto", e);
      }
    }
    const Simd got = want == Simd::kAuto
                         ? (simd_available(Simd::kAvx2) ? Simd::kAvx2 : Simd::kScalar)
                         : available_or_scalar(want);
    obs::set_report_meta("simd_kernel", simd_name(got));
    return got;
  }();
  return v;
}

}  // namespace

const char* simd_name(Simd s) {
  switch (s) {
    case Simd::kScalar: return "scalar";
    case Simd::kAvx2: return "avx2";
    case Simd::kAuto: return "auto";
  }
  return "?";
}

std::optional<Simd> parse_simd(std::string_view name) {
  if (name == "scalar") return Simd::kScalar;
  if (name == "avx2") return Simd::kAvx2;
  if (name == "auto") return Simd::kAuto;
  return std::nullopt;
}

bool simd_available(Simd s) {
  switch (s) {
    case Simd::kScalar:
    case Simd::kAuto:
      return true;
    case Simd::kAvx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

Simd resolve_simd(Simd requested) {
  // Resolved even for an explicit request, so the meta is stamped with the
  // process kernel by the first call of any kind, never by a one-off tier.
  const Simd proc = process_kernel();
  return requested == Simd::kAuto ? proc : available_or_scalar(requested);
}

}  // namespace abg::distance
