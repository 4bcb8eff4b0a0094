#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "dsl/dsl.hpp"
#include "dsl/simplify.hpp"
#include "dsl/units.hpp"
#include "obs/registry.hpp"
#include "synth/buckets.hpp"
#include "synth/enumerator.hpp"
#include "synth/sketch_space.hpp"

namespace abg::synth {
namespace {

EnumeratorOptions small_opts() {
  EnumeratorOptions o;
  o.max_depth = 2;
  o.max_nodes = 3;
  o.max_holes = 2;
  return o;
}

TEST(Enumerator, EmitsOnlyWellFormedNumSketches) {
  auto sketches = enumerate_all(dsl::reno_dsl(), small_opts(), 500);
  ASSERT_FALSE(sketches.empty());
  for (const auto& s : sketches) {
    EXPECT_TRUE(s->is_num()) << dsl::to_string(*s);
    EXPECT_LE(dsl::depth(*s), 2) << dsl::to_string(*s);
    EXPECT_LE(dsl::node_count(*s), 3) << dsl::to_string(*s);
  }
}

TEST(Enumerator, EmitsOnlyInDslSketches) {
  const auto d = dsl::reno_dsl();
  auto sketches = enumerate_all(d, small_opts(), 500);
  for (const auto& s : sketches) {
    for (auto sig : dsl::signals_used(*s)) EXPECT_TRUE(d.has_signal(sig));
    for (auto op : dsl::ops_used(*s)) EXPECT_TRUE(d.has_op(op));
  }
}

TEST(Enumerator, EmitsNoSimplifiableSketches) {
  auto sketches = enumerate_all(dsl::reno_dsl(), small_opts(), 500);
  for (const auto& s : sketches) {
    EXPECT_FALSE(dsl::is_simplifiable(*s)) << dsl::to_string(*s);
  }
}

TEST(Enumerator, EmitsNoDuplicatesUpToCommutativity) {
  auto sketches = enumerate_all(dsl::reno_dsl(), small_opts(), 500);
  std::set<std::size_t> hashes;
  for (const auto& s : sketches) {
    EXPECT_TRUE(hashes.insert(dsl::hash_expr(*dsl::canonicalize(s))).second)
        << dsl::to_string(*s);
  }
}

TEST(Enumerator, UnitCheckedSketchesPassLocalChecker) {
  auto sketches = enumerate_all(dsl::reno_dsl(), small_opts(), 300);
  for (const auto& s : sketches) {
    EXPECT_TRUE(dsl::unit_check(*s)) << dsl::to_string(*s);
  }
}

TEST(Enumerator, UnitCheckingPrunesTheSpace) {
  EnumeratorOptions with = small_opts();
  EnumeratorOptions without = small_opts();
  without.unit_check = false;
  const auto pruned = enumerate_all(dsl::reno_dsl(), with, 5000);
  const auto full = enumerate_all(dsl::reno_dsl(), without, 5000);
  EXPECT_LT(pruned.size(), full.size());
  // And some unit-violating sketch (e.g. time-since-loss alone) appears only
  // in the unchecked run.
  auto has_tsl_leaf = [](const std::vector<dsl::ExprPtr>& v) {
    for (const auto& s : v) {
      if (s->kind == dsl::Expr::Kind::kSignal &&
          s->signal == dsl::Signal::kTimeSinceLoss) {
        return true;
      }
    }
    return false;
  };
  EXPECT_FALSE(has_tsl_leaf(pruned));
  EXPECT_TRUE(has_tsl_leaf(full));
}

TEST(Enumerator, ExhaustsTinySpaces) {
  dsl::Dsl tiny = dsl::reno_dsl();
  tiny.signals = {dsl::Signal::kCwnd, dsl::Signal::kRenoInc};
  tiny.ops = {dsl::Op::kAdd};
  tiny.allow_constants = false;
  EnumeratorOptions o;
  o.max_depth = 2;
  o.max_nodes = 3;
  SketchEnumerator e(tiny, o);
  std::vector<std::string> all;
  while (auto s = e.next()) all.push_back(dsl::to_string(**s));
  EXPECT_TRUE(e.exhausted());
  // Exactly: cwnd, reno-inc, cwnd+reno-inc (x+x rejected, commutative dedup).
  std::set<std::string> got(all.begin(), all.end());
  EXPECT_EQ(got.size(), 3u) << ::testing::PrintToString(all);
  EXPECT_TRUE(got.count("cwnd"));
  EXPECT_TRUE(got.count("reno-inc"));
  EXPECT_TRUE(got.count("cwnd + reno-inc"));
}

TEST(Enumerator, MatchesReferenceEnumerationOnTinyDsl) {
  // Cross-check the SMT enumeration against the native generator of the
  // same space (synth/sketch_space.hpp) for a two-signal, two-op DSL at
  // depth 2.
  dsl::Dsl tiny = dsl::reno_dsl();
  tiny.signals = {dsl::Signal::kCwnd, dsl::Signal::kMss};
  tiny.ops = {dsl::Op::kAdd, dsl::Op::kSub};
  tiny.allow_constants = false;
  EnumeratorOptions o;
  o.max_depth = 2;
  o.max_nodes = 3;
  auto got = enumerate_all(tiny, o, 1000);

  std::set<std::size_t> expected;
  SketchSpace space(tiny, o);
  ASSERT_TRUE(space.advance(SIZE_MAX, [&](const dsl::ExprPtr& s) {
    expected.insert(dsl::hash_expr(*s));
  }));
  std::set<std::size_t> got_hashes;
  for (const auto& s : got) got_hashes.insert(dsl::hash_expr(*dsl::canonicalize(s)));
  EXPECT_EQ(got_hashes, expected);
  EXPECT_EQ(expected.size(), 5u);  // cwnd, mss, cwnd + mss, cwnd - mss, mss - cwnd
}

TEST(Enumerator, BucketConstraintForcesExactOpUsage) {
  EnumeratorOptions o;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd, dsl::Op::kMul};
  auto sketches = enumerate_all(dsl::reno_dsl(), o, 200);
  ASSERT_FALSE(sketches.empty());
  for (const auto& s : sketches) {
    EXPECT_TRUE(same_ops(dsl::ops_used(*s), *o.bucket)) << dsl::to_string(*s);
  }
}

TEST(Enumerator, EmptyBucketYieldsLeafSketchesOnly) {
  EnumeratorOptions o;
  o.max_depth = 3;
  o.bucket = std::vector<dsl::Op>{};
  auto sketches = enumerate_all(dsl::reno_dsl(), o, 100);
  ASSERT_FALSE(sketches.empty());
  for (const auto& s : sketches) {
    EXPECT_NE(s->kind, dsl::Expr::Kind::kOp) << dsl::to_string(*s);
  }
}

TEST(Enumerator, BucketsPartitionTheSpace) {
  // The union of per-bucket enumerations equals the whole-space enumeration
  // (same DSL, same bounds), with no overlaps.
  dsl::Dsl tiny = dsl::reno_dsl();
  tiny.signals = {dsl::Signal::kCwnd, dsl::Signal::kRenoInc};
  tiny.ops = {dsl::Op::kAdd, dsl::Op::kMul};
  EnumeratorOptions o;
  o.max_depth = 2;
  o.max_nodes = 3;
  o.max_holes = 1;

  std::set<std::size_t> whole;
  for (const auto& s : enumerate_all(tiny, o, 10000)) {
    whole.insert(dsl::hash_expr(*dsl::canonicalize(s)));
  }
  std::set<std::size_t> unioned;
  std::size_t total = 0;
  for (const auto& b : make_buckets(tiny)) {
    EnumeratorOptions bo = o;
    bo.bucket = b.ops;
    const auto part = enumerate_all(tiny, bo, 10000);
    total += part.size();
    for (const auto& s : part) unioned.insert(dsl::hash_expr(*dsl::canonicalize(s)));
  }
  EXPECT_EQ(unioned, whole);
  EXPECT_EQ(total, whole.size());  // disjoint
}

TEST(Enumerator, HoleBudgetIsRespected) {
  EnumeratorOptions o;
  o.max_depth = 3;
  o.max_nodes = 7;
  o.max_holes = 1;
  auto sketches = enumerate_all(dsl::reno_dsl(), o, 300);
  for (const auto& s : sketches) {
    EXPECT_LE(dsl::hole_count(*s), 1) << dsl::to_string(*s);
  }
}

TEST(Enumerator, CountsModelsAndEmissions) {
  SketchEnumerator e(dsl::reno_dsl(), small_opts());
  for (int i = 0; i < 10; ++i) {
    if (!e.next()) break;
  }
  EXPECT_GE(e.models_enumerated(), e.sketches_emitted());
  EXPECT_EQ(e.sketches_emitted(), 10u);
}

TEST(Enumerator, SizeInfeasibleBucketIsExhaustedWithoutZ3State) {
  // {+,*,/} needs at least 1 + 2 + 2 + 2 = 7 nodes; the bound allows 5.
  EnumeratorOptions o;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd, dsl::Op::kMul, dsl::Op::kDiv};
  auto& built = obs::counter("synth.enumerators_built");
  const auto built0 = built.value();
  SketchEnumerator e(dsl::reno_dsl(), o);
  EXPECT_TRUE(e.exhausted());
  EXPECT_EQ(e.models_enumerated(), 0u);
  EXPECT_EQ(built.value(), built0);
  EXPECT_FALSE(e.next().has_value());
  EXPECT_EQ(e.models_enumerated(), 0u);
  EXPECT_EQ(e.sketches_emitted(), 0u);
}

TEST(Enumerator, FeasibleBucketBuildsOneEncodingAndTearsItDown) {
  EnumeratorOptions o = small_opts();
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd};
  auto& built = obs::counter("synth.enumerators_built");
  auto& teardown = obs::histogram("synth.enum_teardown_us");
  const auto built0 = built.value();
  const auto teardown0 = teardown.count();
  {
    SketchEnumerator e(dsl::reno_dsl(), o);
    EXPECT_FALSE(e.exhausted());
    EXPECT_EQ(built.value(), built0 + 1);
    EXPECT_TRUE(e.next().has_value());
    EXPECT_EQ(teardown.count(), teardown0);
  }
  EXPECT_EQ(teardown.count(), teardown0 + 1);
}

}  // namespace
}  // namespace abg::synth
