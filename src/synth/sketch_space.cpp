#include "synth/sketch_space.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dsl/simplify.hpp"
#include "dsl/units.hpp"

namespace abg::synth {

int min_feasible_size(const EnumeratorOptions& opts) {
  if (!opts.bucket) return 1;
  int bound = 1;
  for (dsl::Op o : *opts.bucket) bound += dsl::op_arity(o);
  return bound;
}

namespace {

std::uint16_t op_bit(dsl::Op o) {
  return static_cast<std::uint16_t>(1u << static_cast<unsigned>(o));
}

bool is_op(const dsl::Expr& e, dsl::Op o) { return e.kind == dsl::Expr::Kind::kOp && e.op == o; }
bool is_hole(const dsl::Expr& e) { return e.kind == dsl::Expr::Kind::kHole; }

// The (bytes, secs) exponents a subtree's root can take for some choice of
// hole units, sorted. Holes are independent leaves, so combining the
// children's sets is exact.
using UnitSet = std::vector<std::pair<int, int>>;

// Unit algebra of the encoding's add_unit_constraints, over sets.
enum class UnitRule : std::uint64_t { kMeet, kSum, kDiff, kCube, kCbrt, kCompare };

// One kept subtree. Every hole in it is hole(0); the root level numbers the
// holes of a whole tree in pre-order.
struct Sub {
  dsl::ExprPtr expr;
  int units = -1;         // interned unit set; -1 without unit_check
  std::uint16_t ops = 0;  // operators used
  int holes = 0;
};

// An operator and the classes its children are drawn from.
struct Shape {
  dsl::Op op = dsl::Op::kAdd;
  int arity = 0;
  int child[3] = {0, 0, 0};
};

// Every subtree of one type that fits in `depth` levels with exactly `size`
// nodes. A root class (depth max_depth) is visited, not kept.
struct Class {
  bool boolean = false;
  int depth = 0;
  int size = 0;
  bool root = false;
  std::vector<Sub> subs;
  std::vector<Shape> shapes;
  bool ready = false;  // every child class complete, shapes fixed
  bool done = false;
  // Resume point: next leaf, next shape, and the child indices within it.
  std::size_t leaf = 0;
  std::size_t shape = 0;
  std::size_t idx[3] = {0, 0, 0};
};

dsl::ExprPtr number_holes(const dsl::ExprPtr& e, int& next) {
  if (is_hole(*e)) return dsl::hole(next++);
  if (e->kind != dsl::Expr::Kind::kOp) return e;
  std::vector<dsl::ExprPtr> kids;
  kids.reserve(e->children.size());
  for (const auto& c : e->children) kids.push_back(number_holes(c, next));
  return dsl::node(e->op, std::move(kids));
}

}  // namespace

struct SketchSpace::Impl {
  const dsl::Dsl dsl;
  const bool unit_check;
  const int max_depth;
  const int max_nodes;
  const int max_holes;  // 0 when constants are disallowed
  std::uint16_t allowed = 0;  // operators a tree may use; a bucket's uses all
  const bool bucketed;

  std::vector<Sub> leaves;
  // Kept classes, indexed by kept_index(), then the root classes smallest
  // size first. Sized once, so references into it stay valid.
  std::vector<Class> classes;
  std::size_t next_root = 0;
  bool finished = false;

  std::vector<UnitSet> unit_sets;  // id 0 is the empty set
  std::vector<char> holds_bytes;   // per set: contains the output unit
  std::map<UnitSet, int> unit_ids;
  std::unordered_map<std::uint64_t, int> unit_memo;

  std::size_t work = 0;
  std::size_t limit = 0;
  std::size_t trees = 0;
  const Visit* visit = nullptr;
  std::unordered_set<std::size_t> hashes;

  Impl(const dsl::Dsl& d, const EnumeratorOptions& opts)
      : dsl(d),
        unit_check(opts.unit_check),
        max_depth(std::max(1, opts.max_depth.value_or(d.max_depth))),
        max_nodes(opts.max_nodes.value_or(d.max_nodes)),
        max_holes(d.allow_constants ? opts.max_holes : 0),
        bucketed(opts.bucket.has_value()) {
    for (dsl::Op o : dsl.ops) {
      if (bucketed && std::find(opts.bucket->begin(), opts.bucket->end(), o) == opts.bucket->end()) {
        continue;
      }
      allowed |= op_bit(o);
    }
    intern({});
    for (dsl::Signal s : dsl.signals) {
      const auto u = dsl::signal_unit(s);
      leaves.push_back({dsl::sig(s), unit_check ? intern({{u.bytes, u.secs}}) : -1, 0, 0});
    }
    if (max_holes >= 1) {
      UnitSet any;
      for (int b = -dsl::kHoleUnitRange; b <= dsl::kHoleUnitRange; ++b) {
        for (int s = -dsl::kHoleUnitRange; s <= dsl::kHoleUnitRange; ++s) any.emplace_back(b, s);
      }
      leaves.push_back({dsl::hole(0), unit_check ? intern(std::move(any)) : -1, 0, 1});
    }
    if (max_nodes < 1) {
      finished = true;
      return;
    }
    classes.resize(static_cast<std::size_t>(2 * (max_depth - 1) * max_nodes));
    for (int b = 0; b < 2; ++b) {
      for (int depth = 1; depth < max_depth; ++depth) {
        for (int size = 1; size <= max_nodes; ++size) {
          Class& c = classes[static_cast<std::size_t>(kept_index(b == 1, depth, size))];
          c.boolean = b == 1;
          c.depth = depth;
          c.size = size;
        }
      }
    }
    next_root = classes.size();
    for (int size = min_feasible_size(opts); size <= max_nodes; ++size) {
      Class c;
      c.depth = max_depth;
      c.size = size;
      c.root = true;
      classes.push_back(std::move(c));
    }
  }

  int kept_index(bool boolean, int depth, int size) const {
    return ((boolean ? 1 : 0) * (max_depth - 1) + (depth - 1)) * max_nodes + (size - 1);
  }

  int intern(UnitSet set) {
    auto [it, fresh] = unit_ids.emplace(std::move(set), static_cast<int>(unit_sets.size()));
    if (fresh) {
      unit_sets.push_back(it->first);
      holds_bytes.push_back(std::binary_search(it->first.begin(), it->first.end(),
                                               std::pair{dsl::kBytesUnit.bytes,
                                                         dsl::kBytesUnit.secs}));
    }
    return it->second;
  }

  int combine_units(UnitRule rule, int a, int b) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(rule) << 58) | (static_cast<std::uint64_t>(a) << 29) |
        static_cast<std::uint64_t>(b);
    if (auto it = unit_memo.find(key); it != unit_memo.end()) return it->second;
    const UnitSet& x = unit_sets[static_cast<std::size_t>(a)];
    const UnitSet& y = unit_sets[static_cast<std::size_t>(b)];
    UnitSet out;
    switch (rule) {
      case UnitRule::kMeet:
      case UnitRule::kCompare:
        std::set_intersection(x.begin(), x.end(), y.begin(), y.end(), std::back_inserter(out));
        if (rule == UnitRule::kCompare && !out.empty()) out = {{0, 0}};
        break;
      case UnitRule::kSum:
      case UnitRule::kDiff: {
        const int sign = rule == UnitRule::kSum ? 1 : -1;
        for (const auto& [xb, xs] : x) {
          for (const auto& [yb, ys] : y) out.emplace_back(xb + sign * yb, xs + sign * ys);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        break;
      }
      case UnitRule::kCube:
        for (const auto& [xb, xs] : x) out.emplace_back(3 * xb, 3 * xs);
        break;
      case UnitRule::kCbrt:
        for (const auto& [xb, xs] : x) {
          if (xb % 3 == 0 && xs % 3 == 0) out.emplace_back(xb / 3, xs / 3);
        }
        break;
    }
    const int id = intern(std::move(out));
    unit_memo.emplace(key, id);
    return id;
  }

  // The encoding's add_anti_simplification, on one operator node.
  static bool structure_ok(dsl::Op op, int arity, const Sub* const* k) {
    if (arity == 2 && is_hole(*k[0]->expr) && is_hole(*k[1]->expr)) return false;
    switch (op) {
      case dsl::Op::kAdd: return !is_op(*k[1]->expr, dsl::Op::kAdd);
      case dsl::Op::kMul: return !is_op(*k[1]->expr, dsl::Op::kMul);
      case dsl::Op::kDiv:
        return !is_op(*k[0]->expr, dsl::Op::kDiv) && !is_op(*k[1]->expr, dsl::Op::kDiv);
      case dsl::Op::kCube: return !is_op(*k[0]->expr, dsl::Op::kCbrt) && !is_hole(*k[0]->expr);
      case dsl::Op::kCbrt: return !is_op(*k[0]->expr, dsl::Op::kCube) && !is_hole(*k[0]->expr);
      default: return true;
    }
  }

  int node_units(dsl::Op op, const Sub* const* k) {
    switch (op) {
      case dsl::Op::kAdd:
      case dsl::Op::kSub: return combine_units(UnitRule::kMeet, k[0]->units, k[1]->units);
      case dsl::Op::kMul: return combine_units(UnitRule::kSum, k[0]->units, k[1]->units);
      case dsl::Op::kDiv: return combine_units(UnitRule::kDiff, k[0]->units, k[1]->units);
      // The guard is kept only if feasible; its units do not constrain the
      // branches.
      case dsl::Op::kCond: return combine_units(UnitRule::kMeet, k[1]->units, k[2]->units);
      case dsl::Op::kCube: return combine_units(UnitRule::kCube, k[0]->units, 0);
      case dsl::Op::kCbrt: return combine_units(UnitRule::kCbrt, k[0]->units, 0);
      case dsl::Op::kLt:
      case dsl::Op::kGt:
      case dsl::Op::kModEq: return combine_units(UnitRule::kCompare, k[0]->units, k[1]->units);
    }
    return 0;
  }

  // The operators that build class c, with the child classes of every way
  // to split its size.
  std::vector<Shape> shapes_of(const Class& c) const {
    std::vector<Shape> out;
    if (c.depth < 2 || c.size < 2) return out;
    const int n = c.size - 1;  // nodes below the root
    const int d = c.depth - 1;
    for (dsl::Op o : dsl.ops) {
      if ((allowed & op_bit(o)) == 0 || dsl::op_returns_bool(o) != c.boolean) continue;
      const int arity = dsl::op_arity(o);
      if (arity == 1) {
        out.push_back({o, 1, {kept_index(false, d, n), 0, 0}});
      } else if (arity == 2) {
        for (int a = 1; a < n; ++a) {
          out.push_back({o, 2, {kept_index(false, d, a), kept_index(false, d, n - a), 0}});
        }
      } else {
        for (int g = 3; g + 2 <= n; ++g) {
          for (int a = 1; g + a < n; ++a) {
            out.push_back({o, 3,
                           {kept_index(true, d, g), kept_index(false, d, a),
                            kept_index(false, d, n - g - a)}});
          }
        }
      }
    }
    return out;
  }

  // Completes class ci (and first the classes it draws from), or returns
  // false once the work limit is reached; a later call resumes it.
  bool run(std::size_t ci) {
    Class& c = classes[ci];
    if (c.done) return true;
    if (!c.ready) {
      std::vector<Shape> shapes = shapes_of(c);
      for (const Shape& s : shapes) {
        for (int k = 0; k < s.arity; ++k) {
          if (!run(static_cast<std::size_t>(s.child[k]))) return false;
        }
      }
      std::erase_if(shapes, [&](const Shape& s) {
        for (int k = 0; k < s.arity; ++k) {
          if (classes[static_cast<std::size_t>(s.child[k])].subs.empty()) return true;
        }
        return false;
      });
      c.shapes = std::move(shapes);
      c.ready = true;
    }
    if (!c.boolean && c.size == 1) {
      for (; c.leaf < leaves.size(); ++c.leaf) {
        if (work >= limit) return false;
        ++work;
        admit(c, leaves[c.leaf]);
      }
    }
    for (; c.shape < c.shapes.size(); ++c.shape) {
      const Shape& s = c.shapes[c.shape];
      for (;;) {
        if (work >= limit) return false;
        ++work;
        combine(c, s);
        int k = s.arity - 1;
        while (k >= 0 &&
               ++c.idx[k] == classes[static_cast<std::size_t>(s.child[k])].subs.size()) {
          c.idx[k--] = 0;
        }
        if (k < 0) break;
      }
    }
    c.shapes.clear();
    c.done = true;
    return true;
  }

  void combine(Class& c, const Shape& s) {
    const Sub* k[3] = {nullptr, nullptr, nullptr};
    Sub made;
    made.ops = op_bit(s.op);
    for (int i = 0; i < s.arity; ++i) {
      k[i] = &classes[static_cast<std::size_t>(s.child[i])].subs[c.idx[i]];
      made.holes += k[i]->holes;
      made.ops |= k[i]->ops;
    }
    if (made.holes > max_holes || !structure_ok(s.op, s.arity, k)) return;
    if (unit_check) {
      made.units = node_units(s.op, k);
      if (made.units == 0) return;
    }
    if (c.root && !root_ok(made)) return;
    std::vector<dsl::ExprPtr> kids;
    kids.reserve(static_cast<std::size_t>(s.arity));
    for (int i = 0; i < s.arity; ++i) kids.push_back(k[i]->expr);
    made.expr = dsl::node(s.op, std::move(kids));
    if (c.root) {
      found(made.expr, made.holes);
    } else {
      c.subs.push_back(std::move(made));
    }
  }

  void admit(Class& c, const Sub& leaf) {
    if (!c.root) {
      c.subs.push_back(leaf);
    } else if (root_ok(leaf)) {
      found(leaf.expr, leaf.holes);
    }
  }

  bool root_ok(const Sub& s) const {
    if (bucketed && s.ops != allowed) return false;
    return !unit_check || holds_bytes[static_cast<std::size_t>(s.units)] != 0;
  }

  // A tree of the space, as a Z3 model decodes it; then next()'s filters.
  void found(dsl::ExprPtr tree, int holes) {
    ++trees;
    if (holes >= 2) {
      int next = 0;
      tree = number_holes(tree, next);
    }
    if (dsl::is_simplifiable(*tree)) return;
    const auto canon = dsl::canonicalize(tree);
    hashes.insert(dsl::hash_expr(*canon));
    if (visit != nullptr && *visit) (*visit)(canon);
  }

  bool advance(std::size_t work_limit, const Visit& v) {
    if (finished) return true;
    limit = work_limit;
    visit = &v;
    for (; next_root < classes.size(); ++next_root) {
      if (!run(next_root)) {
        visit = nullptr;
        return false;
      }
    }
    visit = nullptr;
    finished = true;
    // Only the hash set is needed from here on.
    classes = {};
    leaves = {};
    unit_sets = {};
    holds_bytes = {};
    unit_ids = {};
    unit_memo = {};
    return true;
  }
};

SketchSpace::SketchSpace(const dsl::Dsl& dsl, const EnumeratorOptions& opts)
    : impl_(std::make_unique<Impl>(dsl, opts)) {}

SketchSpace::~SketchSpace() = default;

bool SketchSpace::advance(std::size_t work_limit, const Visit& visit) {
  return impl_->advance(work_limit, visit);
}
bool SketchSpace::finished() const { return impl_->finished; }
std::size_t SketchSpace::work() const { return impl_->work; }
std::size_t SketchSpace::trees() const { return impl_->trees; }
std::size_t SketchSpace::distinct() const { return impl_->hashes.size(); }
bool SketchSpace::contains(std::size_t hash) const { return impl_->hashes.count(hash) != 0; }

}  // namespace abg::synth
