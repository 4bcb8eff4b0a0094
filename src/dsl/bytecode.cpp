#include "dsl/bytecode.hpp"

#include <cmath>
#include <unordered_map>

#include "dsl/eval.hpp"

namespace abg::dsl {

namespace {

// Operand-stack depth the interpreter keeps on the C stack. The DSL's
// enumerator caps expressions far below this; compile() reports the true
// high-water mark and the interpreter falls back to a heap stack above it.
constexpr std::size_t kBcStackCap = 64;

struct Compiler {
  Program prog;
  std::size_t depth = 0;
  // Slot numbering comes from hole_ids() (first-appearance order over the
  // WHOLE expression), not from emission order: a hole inside a statically
  // false conditional guard is never emitted but still owns its slot, and
  // fill_holes indexes bindings by hole_ids position.
  std::unordered_map<int, std::uint16_t> slot_of;

  void push_effect() {
    if (++depth > prog.max_stack) prog.max_stack = depth;
  }

  void emit(BcOp op, std::uint16_t arg, int stack_delta) {
    prog.code.push_back({op, arg});
    if (stack_delta > 0) {
      push_effect();
    } else {
      depth -= static_cast<std::size_t>(-stack_delta);
    }
  }

  void lower(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kSignal:
        emit(BcOp::kPushSignal, static_cast<std::uint16_t>(e.signal), +1);
        return;
      case Expr::Kind::kConst:
        prog.consts.push_back(e.value);
        emit(BcOp::kPushConst, static_cast<std::uint16_t>(prog.consts.size() - 1), +1);
        return;
      case Expr::Kind::kHole:
        emit(BcOp::kPushHole, slot_of.at(e.hole_id), +1);
        return;
      case Expr::Kind::kOp:
        break;
    }
    switch (e.op) {
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kLt:
      case Op::kGt:
      case Op::kModEq: {
        lower(*e.children[0]);
        lower(*e.children[1]);
        static constexpr BcOp kBin[] = {BcOp::kAdd, BcOp::kSub,  BcOp::kMul, BcOp::kDivGuard,
                                        BcOp::kLt,  BcOp::kGt,   BcOp::kModEq};
        const std::size_t i = e.op <= Op::kDiv
                                  ? static_cast<std::size_t>(e.op)
                                  : 4 + static_cast<std::size_t>(e.op) -
                                        static_cast<std::size_t>(Op::kLt);
        emit(kBin[i], 0, -1);
        return;
      }
      case Op::kCube:
        lower(*e.children[0]);
        emit(BcOp::kCube, 0, 0);
        return;
      case Op::kCbrt:
        lower(*e.children[0]);
        emit(BcOp::kCbrt, 0, 0);
        return;
      case Op::kCond:
        // eval_bool statically rejects any guard that is not a boolean
        // operator (it returns false without evaluating the child), so such
        // guards lower to a pushed 0.0 and the child is not compiled.
        if (e.children[0]->is_bool()) {
          lower(*e.children[0]);
        } else {
          emit(BcOp::kPushFalse, 0, +1);
        }
        lower(*e.children[1]);
        lower(*e.children[2]);
        emit(BcOp::kSelect, 0, -2);
        return;
    }
  }
};

inline double mod_eq_pred(double a, double b) {
  const double fa = std::fabs(a);
  const double fb = std::fabs(b);
  if (fb <= 0 || !std::isfinite(fa) || !std::isfinite(fb)) return 0.0;
  const double r = std::fmod(fa, fb);
  return (r <= kModTolerance * fb || r >= fb * (1.0 - kModTolerance)) ? 1.0 : 0.0;
}

// Slot i of the operand stack occupies stacks[i * kBatchLanes .. +n_lanes).
// Every opcode applies elementwise and performs eval's arithmetic on the same
// doubles in the same order, so lane L's value is eval's for lane L's cwnd
// and bindings, bit for bit (no cross-lane arithmetic).
void exec_batch(const Program& p, const cca::Signals& sig, std::span<const double> lane_cwnd,
                std::span<const double> holes, std::size_t n_lanes, double* stacks,
                double* out) {
  std::size_t top = 0;  // stack depth in slots
  auto slot = [&](std::size_t i) { return stacks + i * kBatchLanes; };
  for (const BcInst inst : p.code) {
    switch (inst.op) {
      case BcOp::kPushSignal: {
        double* s = slot(top++);
        const auto sgn = static_cast<Signal>(inst.arg);
        if (sgn == Signal::kCwnd) {
          for (std::size_t l = 0; l < n_lanes; ++l) s[l] = lane_cwnd[l];
        } else if (sgn == Signal::kRenoInc) {
          // eval computes acked*mss/cwnd left-to-right; hoisting the lane-
          // invariant product keeps the rounding sequence identical.
          const double am = sig.acked_bytes * sig.mss;
          for (std::size_t l = 0; l < n_lanes; ++l) {
            s[l] = lane_cwnd[l] > 0 ? am / lane_cwnd[l] : 0.0;
          }
        } else {
          const double v = signal_value(sgn, sig);
          for (std::size_t l = 0; l < n_lanes; ++l) s[l] = v;
        }
        break;
      }
      case BcOp::kPushConst: {
        double* s = slot(top++);
        const double v = p.consts[inst.arg];
        for (std::size_t l = 0; l < n_lanes; ++l) s[l] = v;
        break;
      }
      case BcOp::kPushHole: {
        double* s = slot(top++);
        const double* h = holes.data() + static_cast<std::size_t>(inst.arg) * n_lanes;
        for (std::size_t l = 0; l < n_lanes; ++l) s[l] = h[l];
        break;
      }
      case BcOp::kAdd: {
        double* a = slot(top - 2);
        const double* b = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) a[l] = a[l] + b[l];
        --top;
        break;
      }
      case BcOp::kSub: {
        double* a = slot(top - 2);
        const double* b = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) a[l] = a[l] - b[l];
        --top;
        break;
      }
      case BcOp::kMul: {
        double* a = slot(top - 2);
        const double* b = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) a[l] = a[l] * b[l];
        --top;
        break;
      }
      case BcOp::kDivGuard: {
        double* a = slot(top - 2);
        const double* b = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) a[l] = b[l] != 0.0 ? a[l] / b[l] : 0.0;
        --top;
        break;
      }
      case BcOp::kCube: {
        double* a = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) a[l] = a[l] * a[l] * a[l];
        break;
      }
      case BcOp::kCbrt: {
        double* a = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) a[l] = std::cbrt(a[l]);
        break;
      }
      case BcOp::kLt: {
        double* a = slot(top - 2);
        const double* b = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) a[l] = a[l] < b[l] ? 1.0 : 0.0;
        --top;
        break;
      }
      case BcOp::kGt: {
        double* a = slot(top - 2);
        const double* b = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) a[l] = a[l] > b[l] ? 1.0 : 0.0;
        --top;
        break;
      }
      case BcOp::kModEq: {
        double* a = slot(top - 2);
        const double* b = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) a[l] = mod_eq_pred(a[l], b[l]);
        --top;
        break;
      }
      case BcOp::kSelect: {
        double* c = slot(top - 3);
        const double* t = slot(top - 2);
        const double* e = slot(top - 1);
        for (std::size_t l = 0; l < n_lanes; ++l) c[l] = c[l] != 0.0 ? t[l] : e[l];
        top -= 2;
        break;
      }
      case BcOp::kPushFalse: {
        double* s = slot(top++);
        for (std::size_t l = 0; l < n_lanes; ++l) s[l] = 0.0;
        break;
      }
    }
  }
  const double* r = top == 0 ? nullptr : slot(top - 1);
  for (std::size_t l = 0; l < n_lanes; ++l) out[l] = r == nullptr ? 0.0 : r[l];
}

}  // namespace

Program compile(const Expr& e) {
  Compiler c;
  const auto ids = hole_ids(e);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    c.slot_of[ids[i]] = static_cast<std::uint16_t>(i);
  }
  c.prog.hole_slots = ids.size();
  c.lower(e);
  return std::move(c.prog);
}

void run_batch(const Program& p, const cca::Signals& sig, std::span<const double> lane_cwnd,
               std::span<const double> holes, std::size_t n_lanes, double* out) {
  if (p.max_stack <= kBcStackCap) {
    double stacks[kBcStackCap * kBatchLanes];
    exec_batch(p, sig, lane_cwnd, holes, n_lanes, stacks, out);
    return;
  }
  std::vector<double> stacks(p.max_stack * kBatchLanes);
  exec_batch(p, sig, lane_cwnd, holes, n_lanes, stacks.data(), out);
}

}  // namespace abg::dsl
