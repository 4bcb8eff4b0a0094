// Runtime DTW-kernel dispatch. Two kernels compute the full-matrix DTW
// dynamic program — a scalar reference (the oracle) and an AVX2 4-lane
// cache-blocked anti-diagonal wavefront — and both are bit-identical on
// every input (asserted by the kernel-equivalence suite), so dispatch is
// purely a speed decision and never a correctness one.
//
// The kernel is a property of the process: the ABG_SIMD environment variable
// (scalar|avx2|auto, parsed once) pins it, otherwise CPU autodetection picks
// AVX2 when the host has it and scalar when not. Requesting AVX2 on a host
// without it falls back to scalar with a one-time warning. The process kernel
// is recorded once in the metrics report meta ("simd_kernel") so perf
// comparisons are never silently cross-kernel. An explicit Simd on a single
// call (DistanceOptions::simd) overrides the process kernel for that call
// only — the seam the kernel-equivalence tests use — and leaves the meta be.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace abg::distance {

// Numeric values are stable: they are written verbatim into journal records
// (JournalRecord::kernel) and must keep decoding old files. Value 1 belonged
// to a deleted kernel; journals that carry it still decode (abg_inspect).
enum class Simd : std::uint8_t {
  kScalar = 0,
  kAvx2 = 2,
  kAuto = 255,  // defer to ABG_SIMD, then CPU detection
};

// "scalar" / "avx2" / "auto".
const char* simd_name(Simd s);

// Parse a kernel name (as in ABG_SIMD); nullopt on anything else.
std::optional<Simd> parse_simd(std::string_view name);

// True when the host CPU can run the kernel (kScalar/kAuto: always).
bool simd_available(Simd s);

// kAuto resolves to the process kernel; an explicit kernel resolves to
// itself when the host can run it, else to scalar. Never returns kAuto.
Simd resolve_simd(Simd requested = Simd::kAuto);

}  // namespace abg::distance
