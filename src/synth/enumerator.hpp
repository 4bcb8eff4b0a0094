// SMT-based sketch enumeration (§4.1). The search space is framed as a
// heap-indexed operator tree of bounded depth; an SMT formula (Z3, the same
// solver the paper uses) admits only sketches that
//   * type-check (bool subtrees only under a conditional's guard),
//   * unit-check with integer unit exponents (optional — disabled for the
//     Cubic run, §5.5),
//   * satisfy cheap anti-simplifiability structure (no constant-only
//     operands, canonical associativity, no cbrt/cube inverses, ...),
//   * use *exactly* a given operator subset when a bucket discriminator is
//     supplied (§4.4).
// Each model is decoded into a sketch and blocked; models that the richer
// syntactic simplifiability filter rejects are blocked without being
// emitted, and commutative duplicates are deduplicated via canonical forms.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "dsl/dsl.hpp"
#include "dsl/expr.hpp"

namespace abg::synth {

struct EnumeratorOptions {
  bool unit_check = true;
  // Exact operator-usage set (bucket discriminator). nullopt = whole DSL.
  std::optional<std::vector<dsl::Op>> bucket;
  // Bound on distinct constant holes (keeps concretization tractable).
  int max_holes = 5;
  // Override the DSL's depth/node bounds (e.g. the per-machine depth sweeps
  // of §5).
  std::optional<int> max_depth;
  std::optional<int> max_nodes;
};

// Building the Z3 encoding is counted in "synth.enumerators_built" and timed
// in "synth.enum_build_us"; each solver check is timed in "synth.solve_us",
// and destroying the encoding in "synth.enum_teardown_us". A bucket whose
// operator set needs more than max_nodes nodes gets no encoding at all: it is
// exhausted() from construction, with zero models.
class SketchEnumerator {
 public:
  SketchEnumerator(const dsl::Dsl& dsl, EnumeratorOptions opts = {});
  ~SketchEnumerator();

  SketchEnumerator(const SketchEnumerator&) = delete;
  SketchEnumerator& operator=(const SketchEnumerator&) = delete;

  // Next canonical sketch, or nullopt once the space is exhausted.
  std::optional<dsl::ExprPtr> next();

  bool exhausted() const;
  // Raw SMT models decoded (including ones rejected by the post-filter).
  std::size_t models_enumerated() const;
  // Sketches actually emitted by next().
  std::size_t sketches_emitted() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience: enumerate every sketch in the (sub-)space, up to `cap`.
std::vector<dsl::ExprPtr> enumerate_all(const dsl::Dsl& dsl, const EnumeratorOptions& opts,
                                        std::size_t cap);

}  // namespace abg::synth
