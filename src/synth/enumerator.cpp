#include "synth/enumerator.hpp"

#include <z3++.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <compare>
#include <map>
#include <mutex>
#include <unordered_set>

#include "dsl/simplify.hpp"
#include "dsl/units.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "synth/sketch_space.hpp"

namespace abg::synth {

namespace {

// Production ids for the per-node selector variable:
//   0                -> inactive
//   1 .. S           -> signal leaf (dsl.signals[v-1])
//   S+1              -> hole (constant)
//   S+2 .. S+1+O     -> operator (dsl.ops[v-S-2])
struct ProdIds {
  int signal_base = 1;
  int hole_id = 0;        // 0 if constants disallowed
  int op_base = 0;
  int max_id = 0;

  explicit ProdIds(const dsl::Dsl& d) {
    const int s = static_cast<int>(d.signals.size());
    hole_id = d.allow_constants ? s + 1 : 0;
    op_base = s + (d.allow_constants ? 2 : 1);
    max_id = op_base + static_cast<int>(d.ops.size()) - 1;
  }
};

// The Z3 encoding of one (sub-)space: context, solver and the per-node
// variables with every structural constraint asserted. Its context alone
// mallocs 16.8 MB (two 8.5 MB blocks); building one takes 6.5-12 ms and
// destroying it about 11 ms, so an enumerator holds one only while its space
// can still yield a sketch.
struct Encoding {
  const dsl::Dsl& dsl;
  const EnumeratorOptions& opts;
  ProdIds ids;
  int max_nodes;
  std::size_t node_total;  // heap size: (3^depth - 1) / 2

  z3::context ctx;
  z3::solver solver;
  std::vector<z3::expr> prod;  // per-node production selector
  std::vector<z3::expr> ub, us;  // per-node unit exponents (if unit_check)

  Encoding(const dsl::Dsl& d, const EnumeratorOptions& o, int max_depth, int max_nodes_in)
      : dsl(d), opts(o), ids(d), max_nodes(max_nodes_in), solver(ctx) {
    node_total = 1;
    std::size_t layer = 1;
    for (int i = 1; i < max_depth; ++i) {
      layer *= 3;
      node_total += layer;
    }
    build_vars();
    build_constraints();
  }

  bool is_bool_prod(int v) const {
    if (v < ids.op_base) return false;
    return dsl::op_returns_bool(dsl.ops[static_cast<std::size_t>(v - ids.op_base)]);
  }

  int prod_of_op(dsl::Op o) const {
    for (std::size_t i = 0; i < dsl.ops.size(); ++i) {
      if (dsl.ops[i] == o) return ids.op_base + static_cast<int>(i);
    }
    return -1;
  }

  // Heap children; index >= node_total means "beyond the tree" (must be
  // conceptually inactive, which bounds the parent to leaf productions).
  static std::size_t child(std::size_t i, int k) { return 3 * i + 1 + static_cast<std::size_t>(k); }

  void build_vars() {
    for (std::size_t i = 0; i < node_total; ++i) {
      prod.push_back(ctx.int_const(("p" + std::to_string(i)).c_str()));
      if (opts.unit_check) {
        ub.push_back(ctx.int_const(("ub" + std::to_string(i)).c_str()));
        us.push_back(ctx.int_const(("us" + std::to_string(i)).c_str()));
      }
    }
  }

  z3::expr active(std::size_t i) { return prod[i] != 0; }
  z3::expr inactive_beyond(std::size_t i) {
    // Virtual nodes beyond the heap are always inactive.
    return i < node_total ? !active(i) : ctx.bool_val(true);
  }
  z3::expr is_prod(std::size_t i, int v) { return prod[i] == v; }

  z3::expr is_num_node(std::size_t i) {
    // Active and not a bool-returning op.
    z3::expr e = active(i);
    for (std::size_t j = 0; j < dsl.ops.size(); ++j) {
      if (dsl::op_returns_bool(dsl.ops[j])) {
        e = e && prod[i] != ids.op_base + static_cast<int>(j);
      }
    }
    return e;
  }

  z3::expr is_bool_node(std::size_t i) {
    z3::expr e = ctx.bool_val(false);
    for (std::size_t j = 0; j < dsl.ops.size(); ++j) {
      if (dsl::op_returns_bool(dsl.ops[j])) {
        e = e || prod[i] == ids.op_base + static_cast<int>(j);
      }
    }
    return e;
  }

  z3::expr child_req(std::size_t i, int k, bool want_bool) {
    const std::size_t c = child(i, k);
    if (c >= node_total) return ctx.bool_val(false);  // child needed but no room
    return want_bool ? is_bool_node(c) : is_num_node(c);
  }

  z3::expr child_off(std::size_t i, int k) {
    const std::size_t c = child(i, k);
    return c < node_total ? !active(c) : ctx.bool_val(true);
  }

  void build_constraints() {
    // Domain of the selector.
    for (std::size_t i = 0; i < node_total; ++i) {
      solver.add(prod[i] >= 0 && prod[i] <= ids.max_id);
      if (!dsl.allow_constants) {
        // No hole production exists; ids already exclude it.
      }
    }
    // Root: active, numeric.
    solver.add(is_num_node(0));

    for (std::size_t i = 0; i < node_total; ++i) {
      // Leaves and holes have no children.
      z3::expr is_leaf = prod[i] >= 1 && prod[i] < ids.op_base;
      solver.add(z3::implies(is_leaf || prod[i] == 0,
                             child_off(i, 0) && child_off(i, 1) && child_off(i, 2)));
      // Operators constrain their children.
      for (std::size_t j = 0; j < dsl.ops.size(); ++j) {
        const dsl::Op o = dsl.ops[j];
        const z3::expr sel = prod[i] == ids.op_base + static_cast<int>(j);
        z3::expr kids = ctx.bool_val(true);
        switch (dsl::op_arity(o)) {
          case 1:
            kids = child_req(i, 0, false) && child_off(i, 1) && child_off(i, 2);
            break;
          case 2:
            kids = child_req(i, 0, false) && child_req(i, 1, false) && child_off(i, 2);
            break;
          case 3:  // cond: guard is bool, branches numeric
            kids = child_req(i, 0, true) && child_req(i, 1, false) && child_req(i, 2, false);
            break;
        }
        solver.add(z3::implies(sel, kids));
      }
    }

    // Node budget (the exact size is additionally steered per check() via an
    // assumption, see next()).
    {
      z3::expr_vector actives(ctx);
      for (std::size_t i = 0; i < node_total; ++i) {
        actives.push_back(z3::ite(active(i), ctx.int_val(1), ctx.int_val(0)));
      }
      solver.add(z3::sum(actives) <= max_nodes);
    }

    // Hole budget.
    if (dsl.allow_constants) {
      z3::expr_vector holes(ctx);
      for (std::size_t i = 0; i < node_total; ++i) {
        holes.push_back(z3::ite(prod[i] == ids.hole_id, ctx.int_val(1), ctx.int_val(0)));
      }
      solver.add(z3::sum(holes) <= opts.max_holes);
    }

    if (opts.unit_check) add_unit_constraints();
    add_anti_simplification();
    if (opts.bucket) add_bucket_constraint(*opts.bucket);
  }

  void add_unit_constraints() {
    solver.add(ub[0] == 1 && us[0] == 0);  // output in bytes
    for (std::size_t i = 0; i < node_total; ++i) {
      // Signals have fixed units.
      for (std::size_t s = 0; s < dsl.signals.size(); ++s) {
        const auto u = dsl::signal_unit(dsl.signals[s]);
        solver.add(z3::implies(prod[i] == ids.signal_base + static_cast<int>(s),
                               ub[i] == u.bytes && us[i] == u.secs));
      }
      // Holes are unit-polymorphic within bounds.
      if (dsl.allow_constants) {
        solver.add(z3::implies(prod[i] == ids.hole_id,
                               ub[i] >= -dsl::kHoleUnitRange && ub[i] <= dsl::kHoleUnitRange &&
                                   us[i] >= -dsl::kHoleUnitRange && us[i] <= dsl::kHoleUnitRange));
      }
      // Inactive nodes pinned to zero (prunes the model space).
      solver.add(z3::implies(!active(i), ub[i] == 0 && us[i] == 0));

      // Operator unit algebra.
      for (std::size_t j = 0; j < dsl.ops.size(); ++j) {
        const dsl::Op o = dsl.ops[j];
        const z3::expr sel = prod[i] == ids.op_base + static_cast<int>(j);
        const std::size_t c0 = child(i, 0), c1 = child(i, 1), c2 = child(i, 2);
        auto in_tree = [this](std::size_t c) { return c < node_total; };
        z3::expr rule = ctx.bool_val(true);
        switch (o) {
          case dsl::Op::kAdd:
          case dsl::Op::kSub:
            if (in_tree(c1)) {
              rule = ub[i] == ub[c0] && us[i] == us[c0] && ub[c0] == ub[c1] && us[c0] == us[c1];
            }
            break;
          case dsl::Op::kMul:
            if (in_tree(c1)) rule = ub[i] == ub[c0] + ub[c1] && us[i] == us[c0] + us[c1];
            break;
          case dsl::Op::kDiv:
            if (in_tree(c1)) rule = ub[i] == ub[c0] - ub[c1] && us[i] == us[c0] - us[c1];
            break;
          case dsl::Op::kCond:
            if (in_tree(c2)) {
              rule = ub[i] == ub[c1] && us[i] == us[c1] && ub[c1] == ub[c2] && us[c1] == us[c2];
            }
            break;
          case dsl::Op::kCube:
            if (in_tree(c0)) rule = ub[i] == 3 * ub[c0] && us[i] == 3 * us[c0];
            break;
          case dsl::Op::kCbrt:
            // Integer-valued units only (§5.5): the child's exponents must
            // be divisible by three.
            if (in_tree(c0)) rule = ub[c0] == 3 * ub[i] && us[c0] == 3 * us[i];
            break;
          case dsl::Op::kLt:
          case dsl::Op::kGt:
          case dsl::Op::kModEq:
            if (in_tree(c1)) {
              rule = ub[i] == 0 && us[i] == 0 && ub[c0] == ub[c1] && us[c0] == us[c1];
            }
            break;
        }
        solver.add(z3::implies(sel, rule));
      }
    }
  }

  void add_anti_simplification() {
    const int hole = ids.hole_id;
    for (std::size_t i = 0; i < node_total; ++i) {
      const std::size_t c0 = child(i, 0), c1 = child(i, 1), c2 = child(i, 2);
      if (c0 >= node_total) continue;
      auto sel = [&](dsl::Op o) {
        const int p = prod_of_op(o);
        return p >= 0 ? prod[i] == p : ctx.bool_val(false);
      };
      // Binary arithmetic/comparison over two holes folds to a constant /
      // constant truth value.
      if (dsl.allow_constants && c1 < node_total) {
        for (dsl::Op o : {dsl::Op::kAdd, dsl::Op::kSub, dsl::Op::kMul, dsl::Op::kDiv,
                          dsl::Op::kLt, dsl::Op::kGt, dsl::Op::kModEq}) {
          solver.add(z3::implies(sel(o), !(prod[c0] == hole && prod[c1] == hole)));
        }
        // Constant guard on a conditional folds the conditional away.
      }
      // Canonical left-leaning associativity for + and *.
      if (c1 < node_total) {
        const int p_add = prod_of_op(dsl::Op::kAdd);
        const int p_mul = prod_of_op(dsl::Op::kMul);
        const int p_div = prod_of_op(dsl::Op::kDiv);
        if (p_add >= 0) solver.add(z3::implies(sel(dsl::Op::kAdd), prod[c1] != p_add));
        if (p_mul >= 0) solver.add(z3::implies(sel(dsl::Op::kMul), prod[c1] != p_mul));
        if (p_div >= 0) {
          solver.add(z3::implies(sel(dsl::Op::kDiv), prod[c0] != p_div && prod[c1] != p_div));
        }
      }
      // cube(cbrt(x)) and cbrt(cube(x)) are identities.
      {
        const int p_cube = prod_of_op(dsl::Op::kCube);
        const int p_cbrt = prod_of_op(dsl::Op::kCbrt);
        if (p_cube >= 0 && p_cbrt >= 0) {
          solver.add(z3::implies(sel(dsl::Op::kCube), prod[c0] != p_cbrt));
          solver.add(z3::implies(sel(dsl::Op::kCbrt), prod[c0] != p_cube));
        }
        // cube/cbrt of a bare hole folds to a constant.
        if (dsl.allow_constants) {
          if (p_cube >= 0) solver.add(z3::implies(sel(dsl::Op::kCube), prod[c0] != hole));
          if (p_cbrt >= 0) solver.add(z3::implies(sel(dsl::Op::kCbrt), prod[c0] != hole));
        }
      }
      (void)c2;
    }
  }

  void add_bucket_constraint(const std::vector<dsl::Op>& bucket) {
    for (std::size_t j = 0; j < dsl.ops.size(); ++j) {
      const dsl::Op o = dsl.ops[j];
      const int p = ids.op_base + static_cast<int>(j);
      const bool in_bucket =
          std::find(bucket.begin(), bucket.end(), o) != bucket.end();
      if (!in_bucket) {
        for (std::size_t i = 0; i < node_total; ++i) solver.add(prod[i] != p);
      } else {
        z3::expr any = ctx.bool_val(false);
        for (std::size_t i = 0; i < node_total; ++i) any = any || prod[i] == p;
        solver.add(any);
      }
    }
  }

  // Every node's production in model m, read once for decode and block.
  std::vector<int> read(const z3::model& m) {
    std::vector<int> v(node_total);
    for (std::size_t i = 0; i < node_total; ++i) v[i] = m.eval(prod[i], true).get_numeral_int();
    return v;
  }

  dsl::ExprPtr decode(const std::vector<int>& prods, std::size_t i, int& next_hole) {
    const int v = prods[i];
    if (v == 0) return nullptr;
    if (v >= 1 && v < ids.op_base) {
      if (dsl.allow_constants && v == ids.hole_id) return dsl::hole(next_hole++);
      return dsl::sig(dsl.signals[static_cast<std::size_t>(v - 1)]);
    }
    const dsl::Op o = dsl.ops[static_cast<std::size_t>(v - ids.op_base)];
    std::vector<dsl::ExprPtr> kids;
    for (int k = 0; k < dsl::op_arity(o); ++k) {
      auto c = decode(prods, child(i, k), next_hole);
      if (!c) return nullptr;  // malformed model; should not happen
      kids.push_back(std::move(c));
    }
    return dsl::node(o, std::move(kids));
  }

  void block(const std::vector<int>& prods) {
    z3::expr clause = ctx.bool_val(false);
    for (std::size_t i = 0; i < node_total; ++i) clause = clause || prod[i] != prods[i];
    solver.add(clause);
  }

  z3::expr size_assumption(int k) {
    z3::expr_vector actives(ctx);
    for (std::size_t i = 0; i < node_total; ++i) {
      actives.push_back(z3::ite(active(i), ctx.int_val(1), ctx.int_val(0)));
    }
    return z3::sum(actives) == k;
  }
};

// Candidate trees the native count may examine per Z3 model the stream has
// drawn. One model costs 1-3 ms of solving at §6.1's bounds and a candidate
// 0.1-0.3 us, so counting costs at most about 1% of the Z3 work before it,
// against Z3's exhaustion tail (a third of the {+,*} bucket's solving).
constexpr std::size_t kCountWorkPerModel = 64;

// The native count's ledger, registered together with the first producer so
// that every export lists all three.
struct CountLedger {
  obs::Counter& ended = obs::counter("synth.streams_ended_by_count");
  obs::Counter& mismatch = obs::counter("synth.native_count_mismatch");
  obs::Histogram& us = obs::histogram("synth.native_count_us");
};

const CountLedger& count_ledger() {
  static const CountLedger ledger;
  return ledger;
}

// synth.producers_live: Z3 encodings alive in the process. The count and
// the gauge change under one lock so the gauge never shows a stale value.
// When the last one is torn down the process has no Z3 state left, and the
// free memory its small allocations leave in the pool threads' arenas goes
// back to the OS too (about 45 MB after a serve-smoke job; 5-13 ms, once per
// idle, where trimming after every teardown would cost that per producer).
void count_live_producers(int delta) {
  static auto& g_live = obs::gauge("synth.producers_live");
  // Leaked, like the stream registry: a lease may drop during static
  // destruction.
  static auto* mu = new std::mutex;
  static int live = 0;
  bool idle = false;
  {
    std::lock_guard lk(*mu);
    live += delta;
    g_live.set(live);
    idle = live == 0;
  }
#if defined(__GLIBC__)
  if (idle) malloc_trim(0);
#endif
}

}  // namespace

struct SketchEnumerator::Impl {
  dsl::Dsl dsl;
  EnumeratorOptions opts;
  int max_nodes;
  std::unique_ptr<Encoding> enc;  // null when the space is empty by size alone

  bool exhausted = false;
  std::size_t models = 0;
  std::size_t emitted = 0;
  std::unordered_set<std::size_t> seen_hashes;
  // Sketches are enumerated in increasing size (node count): the refinement
  // loop samples the first N of a bucket, and small expressions are both the
  // likeliest true handlers and the cheapest to score. The size target is
  // passed as a per-check assumption so blocking clauses stay permanent.
  // Starting at min_feasible_size avoids grinding UNSAT proofs at impossible
  // sizes, and buckets whose bound exceeds max_nodes are empty outright: they
  // get no Z3 state at all.
  int current_size = 1;

  // The native count of the space (sketch_space.hpp): once it is finished
  // and `emitted` reaches it, the stream ends without Z3 proving the rest of
  // the space empty. Null when the space is empty by size alone, and after a
  // mismatch.
  std::unique_ptr<SketchSpace> count;
  std::size_t count_step_at = 0;  // `emitted` at which counting advances next

  Impl(const dsl::Dsl& d, EnumeratorOptions o) : dsl(d), opts(std::move(o)) {
    static auto& c_built = obs::counter("synth.enumerators_built");
    static auto& h_build = obs::histogram("synth.enum_build_us");
    max_nodes = opts.max_nodes.value_or(dsl.max_nodes);
    current_size = min_feasible_size(opts);
    if (current_size > max_nodes) {
      exhausted = true;
      return;
    }
#if defined(__GLIBC__)
    // Fixes glibc's mmap threshold at 1 MiB, once per process and before the
    // first context is built (mallopt is process-wide). By default glibc
    // raises the threshold to the size of the first mmapped block it frees,
    // so after the first teardown every later context's 8.5 MB blocks come
    // from the pool threads' arenas, where freed contexts stay resident and
    // fragment. A fixed threshold turns that adjustment off: each context
    // maps its own blocks and unmaps them at teardown, so RSS tracks the
    // live producers. Any value below 8.5 MB does; 1 MiB leaves the small
    // allocations of scoring and replay on the heap.
    static const bool mmap_threshold_fixed = mallopt(M_MMAP_THRESHOLD, 1 << 20) == 1;
    (void)mmap_threshold_fixed;
#endif
    // Z3 compacts every model it builds by default, work a model that is read
    // once, node by node, never needs. A global parameter, so it is set once,
    // before the first context exists; the models' values are the same.
    static const bool models_uncompacted = [] {
      z3::set_param("model.compact", false);
      return true;
    }();
    (void)models_uncompacted;
    obs::Timer t(h_build);
    enc = std::make_unique<Encoding>(dsl, opts, opts.max_depth.value_or(dsl.max_depth), max_nodes);
    c_built.add();
    count_live_producers(+1);
    count = std::make_unique<SketchSpace>(dsl, opts);
    count_ledger();
    // Counted by the refinement pass (shard.cpp); registered here so that
    // every export with a producer lists it.
    obs::counter("synth.streams_rederived");
  }

  ~Impl() {
    static auto& h_teardown = obs::histogram("synth.enum_teardown_us");
    if (!enc) return;
    {
      obs::Timer t(h_teardown);
      enc.reset();
    }
    count_live_producers(-1);
  }

  // A count that misses a sketch Z3 emitted is not the space's: it stops
  // for good, and the stream ends where Z3 ends it.
  void count_missed() {
    count_ledger().mismatch.add();
    count.reset();
  }

  // True when the native count shows that every sketch of the space has been
  // emitted. Counting advances only when `emitted` reaches a step that
  // doubles each time, and then only up to kCountWorkPerModel candidate trees
  // per Z3 model drawn so far: its work grows with the stream, and stays far
  // below the Z3 work it can save. When Z3 ends the stream first, the count
  // is simply never finished.
  bool count_reached() {
    if (!count) return false;
    if (!count->finished() && emitted >= count_step_at) {
      obs::Timer t(count_ledger().us);
      count_step_at = std::max<std::size_t>(2 * emitted, 1);
      if (count->advance(kCountWorkPerModel * std::max<std::size_t>(models, 1))) {
        for (const std::size_t h : seen_hashes) {
          if (!count->contains(h)) {
            count_missed();
            return false;
          }
        }
      }
    }
    return count->finished() && emitted == count->distinct();
  }

  std::optional<dsl::ExprPtr> next() {
    static auto& c_models = obs::counter("synth.solver_models");
    static auto& c_emitted = obs::counter("synth.sketches_emitted");
    static auto& h_solve = obs::histogram("synth.solve_us");
    while (!exhausted) {
      if (count_reached()) {
        exhausted = true;
        count_ledger().ended.add();
        return std::nullopt;
      }
      // Smallest-first: exhaust all size-k sketches before size k+1.
      z3::expr_vector assumptions(enc->ctx);
      assumptions.push_back(enc->size_assumption(current_size));
      const z3::check_result sat = [&] {
        obs::Timer t(h_solve);
        return enc->solver.check(assumptions);
      }();
      if (sat != z3::sat) {
        if (++current_size > max_nodes) {
          exhausted = true;
          return std::nullopt;
        }
        continue;
      }
      const std::vector<int> prods = enc->read(enc->solver.get_model());
      ++models;
      c_models.add();
      int next_hole = 0;
      dsl::ExprPtr sketch = enc->decode(prods, 0, next_hole);
      enc->block(prods);
      if (!sketch) continue;
      // Richer syntactic filter + commutative dedup (the post-filter half of
      // the paper's sympy-based non-simplifiability check).
      if (dsl::is_simplifiable(*sketch)) continue;
      const auto canon = dsl::canonicalize(sketch);
      const std::size_t hash = dsl::hash_expr(*canon);
      if (!seen_hashes.insert(hash).second) continue;
      if (count && count->finished() && !count->contains(hash)) count_missed();
      ++emitted;
      c_emitted.add();
      return canon;
    }
    return std::nullopt;
  }
};

SketchEnumerator::SketchEnumerator(const dsl::Dsl& dsl, EnumeratorOptions opts)
    : impl_(std::make_unique<Impl>(dsl, std::move(opts))) {}

SketchEnumerator::~SketchEnumerator() = default;

std::optional<dsl::ExprPtr> SketchEnumerator::next() { return impl_->next(); }
bool SketchEnumerator::exhausted() const { return impl_->exhausted; }
std::size_t SketchEnumerator::models_enumerated() const { return impl_->models; }
std::size_t SketchEnumerator::sketches_emitted() const { return impl_->emitted; }

struct SketchStream::Key {
  std::vector<dsl::Signal> signals;
  std::vector<dsl::Op> ops;
  bool allow_constants = true;
  std::optional<std::vector<dsl::Op>> bucket;
  bool unit_check = true;
  int max_holes = 0;
  int max_depth = 0;
  int max_nodes = 0;

  auto operator<=>(const Key&) const = default;
};

struct SketchStream::Registry {
  std::mutex mu;
  std::map<Key, std::weak_ptr<SketchStream>> streams;
};

SketchStream::Registry& SketchStream::registry() {
  // Leaked on purpose: a lease may still drop during static destruction.
  static auto* reg = new Registry;
  return *reg;
}

SketchStream::SketchStream(const dsl::Dsl& dsl, const EnumeratorOptions& opts)
    : dsl_(dsl),
      opts_(opts),
      key_(std::make_unique<Key>(Key{dsl.signals, dsl.ops, dsl.allow_constants, opts.bucket,
                                     opts.unit_check, opts.max_holes,
                                     opts.max_depth.value_or(dsl.max_depth),
                                     opts.max_nodes.value_or(dsl.max_nodes)})) {}

SketchStream::~SketchStream() = default;

std::shared_ptr<SketchStream> SketchStream::lease(const dsl::Dsl& dsl,
                                                  const EnumeratorOptions& opts) {
  static auto& g_live = obs::gauge("synth.streams_live");
  Registry& reg = registry();
  std::shared_ptr<SketchStream> stream;
  {
    // A candidate (no producer yet) is made outside the registry lock and
    // registered under it only if the spec has no live stream, so two leases
    // of one spec can never race to two streams.
    std::unique_ptr<SketchStream> fresh(new SketchStream(dsl, opts));
    std::lock_guard lk(reg.mu);
    auto it = reg.streams.find(*fresh->key_);
    if (it != reg.streams.end()) {
      if (auto live = it->second.lock()) return live;
    }
    // The last lease erases the entry (unless a newer stream of the same
    // spec already took it over) and then destroys the stream, producer
    // included, outside the registry lock.
    stream.reset(fresh.release(), [](SketchStream* s) {
      Registry& r = registry();
      {
        std::lock_guard lk(r.mu);
        auto it = r.streams.find(*s->key_);
        if (it != r.streams.end() && it->second.expired()) r.streams.erase(it);
        g_live.set(static_cast<double>(r.streams.size()));
      }
      delete s;
    });
    reg.streams.insert_or_assign(*stream->key_, stream);
    g_live.set(static_cast<double>(reg.streams.size()));
  }
  // Build the producer outside the registry lock; a concurrent lease of the
  // same spec waits for it on the stream lock.
  std::lock_guard lk(stream->mu_);
  if (!stream->done_) stream->producer();
  return stream;
}

SketchEnumerator& SketchStream::producer() {
  if (!producer_) producer_ = std::make_unique<SketchEnumerator>(dsl_, opts_);
  return *producer_;
}

std::optional<dsl::ExprPtr> SketchStream::at(std::size_t i, bool* produced) {
  if (produced != nullptr) *produced = false;
  for (;;) {
    std::unique_ptr<SketchEnumerator> spent;  // torn down after the lock is released
    {
      std::lock_guard lk(mu_);
      if (i < sketches_.size()) return sketches_[i];
      if (done_) return std::nullopt;
      if (auto s = producer().next()) {
        sketches_.push_back(std::move(*s));
        if (sketches_.size() <= i) continue;  // not there yet; relock for the next one
        if (produced != nullptr) *produced = true;
        return sketches_.back();
      }
      done_ = true;
      spent = std::move(producer_);
    }
    return std::nullopt;
  }
}

std::size_t SketchStream::shared_prefix(const std::vector<dsl::ExprPtr>& held) const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  while (n < held.size() && n < sketches_.size() && held[n] == sketches_[n]) ++n;
  return n;
}

void SketchStream::copy_prefix(std::size_t n, std::vector<dsl::ExprPtr>* out) const {
  std::lock_guard lk(mu_);
  const std::size_t end = std::min(n, sketches_.size());
  for (std::size_t i = out->size(); i < end; ++i) out->push_back(sketches_[i]);
}

std::uint64_t sketch_stream_hash(const std::vector<dsl::ExprPtr>& sketches) {
  std::uint64_t h = 0;
  for (const auto& s : sketches) {
    // splitmix64's finalizer over the running hash and the next sketch.
    std::uint64_t z = (h ^ static_cast<std::uint64_t>(dsl::hash_expr(*s))) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    h = z ^ (z >> 31);
  }
  return h;
}

std::vector<dsl::ExprPtr> enumerate_all(const dsl::Dsl& dsl, const EnumeratorOptions& opts,
                                        std::size_t cap) {
  SketchEnumerator e(dsl, opts);
  std::vector<dsl::ExprPtr> out;
  while (out.size() < cap) {
    auto s = e.next();
    if (!s) break;
    out.push_back(std::move(*s));
  }
  return out;
}

}  // namespace abg::synth
