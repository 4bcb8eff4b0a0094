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
#include <cstdint>
#include <memory>
#include <mutex>
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
// and destroying the encoding in "synth.enum_teardown_us". The gauge
// "synth.producers_live" counts the encodings alive. A bucket whose
// operator set needs more than max_nodes nodes gets no encoding at all: it is
// exhausted() from construction, with zero models. Every encoding comes with
// a native count of its space (sketch_space.hpp): once the stream has emitted
// that many sketches it ends with no further Z3 check, where Z3 alone would
// still have to prove the rest of the space empty. The counter
// "synth.streams_ended_by_count" counts those ends, "synth.native_count_us"
// times the counting, and "synth.native_count_mismatch" counts streams whose
// count missed a sketch Z3 emitted (the count is then dropped).
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

// The append-only list of canonical sketches for one enumeration spec,
// extended by its own SketchEnumerator (the producer). §4.1's sketch space
// depends on the DSL, the operator set and the size bounds only, never on
// traces or seed, so every job in flight that searches the same spec shares
// one stream: the Z3 state is built, solved and held once per spec instead
// of once per job.
//
// A lease is a shared_ptr. The process-wide registry keeps only a weak
// reference, keyed on the exact spec (DSL signals and ops in order,
// allow_constants, bucket op set, unit_check, max_holes and the effective
// max_depth/max_nodes, compared field by field), and drops the entry with
// the last lease, so nothing outlives the jobs using it. The producer is
// torn down when the stream is exhausted or its last lease drops, on
// whichever thread does that.
//
// Lock discipline: one mutex per stream, taken once per sketch produced (or
// once per prefix read), never while the caller scores or waits on a pool.
// A caller blocked behind another lease's solve therefore gets control back
// after that one sketch and can poll its cancellation.
class SketchStream {
 public:
  // The live stream for this spec, or a new one with its producer built.
  // The "synth.streams_live" gauge is the registry's size.
  static std::shared_ptr<SketchStream> lease(const dsl::Dsl& dsl, const EnumeratorOptions& opts);

  SketchStream(const SketchStream&) = delete;
  SketchStream& operator=(const SketchStream&) = delete;
  ~SketchStream();

  // Sketch i, producing the sketches up to it first; nullopt once the space
  // is exhausted before i. `*produced` (when given) tells whether this call
  // produced sketch i rather than finding it produced by another caller.
  std::optional<dsl::ExprPtr> at(std::size_t i, bool* produced = nullptr);
  // How many leading sketches of `held` are this stream's own (pointer
  // identity), read under one lock.
  std::size_t shared_prefix(const std::vector<dsl::ExprPtr>& held) const;
  // Append the already-produced sketches [out->size(), n) to *out, under one
  // lock; stops early where production has not reached.
  void copy_prefix(std::size_t n, std::vector<dsl::ExprPtr>* out) const;

 private:
  struct Key;
  struct Registry;
  static Registry& registry();
  SketchStream(const dsl::Dsl& dsl, const EnumeratorOptions& opts);
  SketchEnumerator& producer();  // built on first use; caller holds mu_

  const dsl::Dsl dsl_;
  const EnumeratorOptions opts_;
  std::unique_ptr<Key> key_;
  mutable std::mutex mu_;
  std::unique_ptr<SketchEnumerator> producer_;  // null before first use and once done
  std::vector<dsl::ExprPtr> sketches_;
  bool done_ = false;
};

// Identity of a sketch stream's first sketches: a splitmix64 fold of
// dsl::hash_expr over them (0 for none). A BucketCheckpoint records it, so a
// process that re-derives the stream can tell it produced the same one.
std::uint64_t sketch_stream_hash(const std::vector<dsl::ExprPtr>& sketches);

// Convenience: enumerate every sketch in the (sub-)space, up to `cap`.
std::vector<dsl::ExprPtr> enumerate_all(const dsl::Dsl& dsl, const EnumeratorOptions& opts,
                                        std::size_t cap);

}  // namespace abg::synth
