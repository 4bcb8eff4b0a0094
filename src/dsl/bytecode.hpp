// Flat bytecode form of handler expressions. The tree-walking dsl::eval is
// the semantic reference; compile() lowers an expression to a postfix
// program, and run_batch() evaluates it for up to kBatchLanes
// hole-assignments in lockstep. It is the only interpreter: refinement passes
// and final validation both score candidates through it (synth::replay_batch),
// and eval stays as the reference that tests compare it against.
//
// Why this preserves bit-exactness: every opcode performs exactly the
// arithmetic eval performs, in the same order, on the same doubles. The only
// structural deviations are evaluation-completeness ones — run_batch
// evaluates both sides of a guarded division and both arms of a conditional
// where eval short-circuits — and those cannot change the result because
// eval is pure and total (no side effects, every subexpression defined on
// every input). The selected value is computed by the identical expression
// either way.
//
// Holes compile to lane-varying input slots instead of being substituted, so
// one compiled sketch serves every concretization. Slot numbering matches
// hole_ids()/fill_holes(): slot = position of the hole id in first-
// appearance order (synth::replay_batch applies fill_holes's clamp when it
// lays out the bindings).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cca/signals.hpp"
#include "dsl/expr.hpp"

namespace abg::dsl {

enum class BcOp : std::uint8_t {
  kPushSignal,  // arg = Signal; push signal_value(arg, sig)
  kPushConst,   // arg = index into Program::consts
  kPushHole,    // arg = hole slot; push the lane's binding
  kAdd,         // pop b, a; push a + b
  kSub,         // pop b, a; push a - b
  kMul,         // pop b, a; push a * b
  kDivGuard,    // pop b, a; push b != 0 ? a / b : 0   (eval's kDiv)
  kCube,        // pop v; push v * v * v
  kCbrt,        // pop v; push cbrt(v)
  kLt,          // pop b, a; push a < b ? 1.0 : 0.0
  kGt,          // pop b, a; push a > b ? 1.0 : 0.0
  kModEq,       // pop b, a; push eval_bool's kModEq predicate as 1.0/0.0
  kSelect,      // pop else_v, then_v, cond; push cond != 0 ? then_v : else_v
  kPushFalse,   // push 0.0 (a kCond condition eval_bool rejects statically)
};

struct BcInst {
  BcOp op;
  std::uint16_t arg = 0;
};

struct Program {
  std::vector<BcInst> code;    // postfix order
  std::vector<double> consts;  // kPushConst pool
  std::size_t max_stack = 0;   // operand-stack high-water mark
  std::size_t hole_slots = 0;  // distinct holes (kPushHole args are < this)
};

// Number of hole-assignment lanes run_batch evaluates in lockstep. Eight
// doubles = one cache line of per-lane state; wide enough for the compiler
// to vectorize the elementwise opcode loops, small enough that a partially
// filled final batch wastes little work.
inline constexpr std::size_t kBatchLanes = 8;

// Lower an expression (holes allowed) to bytecode.
Program compile(const Expr& e);

// Evaluate `n_lanes` (<= kBatchLanes) assignments of the same program in
// lockstep. Signals broadcast across lanes except the window: lane L reads
// cwnd = lane_cwnd[L] (and the kRenoInc macro re-derives from it). Hole
// bindings are slot-major: holes[slot * n_lanes + lane]. out[L] receives
// lane L's value and is bit-identical to
// eval(*fill_holes(e, lane L's bindings), sig) with sig.cwnd = lane_cwnd[L].
void run_batch(const Program& p, const cca::Signals& sig,
               std::span<const double> lane_cwnd, std::span<const double> holes,
               std::size_t n_lanes, double* out);

}  // namespace abg::dsl
