// Native generator over the sketch space that SketchEnumerator's Z3
// encoding admits (§4.1). It builds, smallest size first, exactly the trees
// the encoding's models describe:
//   * heap-indexed trees of at most max_depth levels, numeric at the root,
//     bool subtrees only as a conditional's guard;
//   * the node and hole budgets, and the first size a bucket's operator set
//     can fill (min_feasible_size);
//   * unit feasibility with hole exponents in +/-dsl::kHoleUnitRange and
//     integer cube roots (bottom-up sets of the units a subtree can take);
//   * the encoding's anti-simplification rules and the exact bucket op set.
// Holes are numbered in pre-order, as the encoding's decoder does, and each
// tree then goes through dsl::is_simplifiable, dsl::canonicalize and
// dsl::hash_expr exactly as SketchEnumerator::next() does. The number of
// distinct hashes found is the number of sketches the Z3 stream emits,
// whatever order Z3 returns its models in.
//
// Subtrees of one (type, depth, size) class are built once and kept; the
// classes at the root level are visited lazily and not kept. Work is counted
// in candidate trees examined, so a caller can advance the generator in
// bounded steps and resume it exactly where it stopped.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "dsl/dsl.hpp"
#include "dsl/expr.hpp"
#include "synth/enumerator.hpp"

namespace abg::synth {

// A sketch using exactly the bucket's operator set needs at least
// 1 + sum(arity(o)) nodes: >= |B| internal nodes, and a tree with those
// internal nodes has 1 + sum(arity - 1) leaves. 1 without a bucket.
int min_feasible_size(const EnumeratorOptions& opts);

class SketchSpace {
 public:
  // Called once per admitted tree that is not simplifiable, with its
  // canonical form, before any dedup.
  using Visit = std::function<void(const dsl::ExprPtr& canonical)>;

  SketchSpace(const dsl::Dsl& dsl, const EnumeratorOptions& opts);
  ~SketchSpace();

  SketchSpace(const SketchSpace&) = delete;
  SketchSpace& operator=(const SketchSpace&) = delete;

  // Examines further candidate trees until the space is done or work()
  // reaches `work_limit`; returns finished().
  bool advance(std::size_t work_limit, const Visit& visit = {});

  bool finished() const;
  // Candidate trees examined so far, stored subtrees included.
  std::size_t work() const;
  // Trees of the space found so far: a drained SketchEnumerator decodes
  // exactly this many Z3 models.
  std::size_t trees() const;
  // Distinct dsl::hash_expr values of the canonical sketches found so far;
  // once finished(), the number of sketches the stream emits.
  std::size_t distinct() const;
  bool contains(std::size_t hash) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace abg::synth
