// The native sketch-space generator (synth/sketch_space.hpp) against the Z3
// encoding it counts: per-size hash sets, totals, and the stream ends the
// count allows.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "dsl/dsl.hpp"
#include "dsl/simplify.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "synth/buckets.hpp"
#include "synth/enumerator.hpp"
#include "synth/sketch_space.hpp"

namespace abg::synth {
namespace {

// Sketch hashes by node count, each at the size where it was first found:
// the stream dedups across sizes, smallest first.
using PerSize = std::map<int, std::set<std::size_t>>;

PerSize native_per_size(const dsl::Dsl& d, const EnumeratorOptions& o) {
  SketchSpace space(d, o);
  PerSize out;
  std::set<std::size_t> seen;
  EXPECT_TRUE(space.advance(SIZE_MAX, [&](const dsl::ExprPtr& s) {
    const std::size_t h = dsl::hash_expr(*s);
    if (seen.insert(h).second) out[dsl::node_count(*s)].insert(h);
  }));
  EXPECT_EQ(space.distinct(), seen.size());
  return out;
}

PerSize z3_per_size(const dsl::Dsl& d, const EnumeratorOptions& o) {
  PerSize out;
  for (const auto& s : enumerate_all(d, o, SIZE_MAX)) {
    out[dsl::node_count(*s)].insert(dsl::hash_expr(*s));
  }
  return out;
}

EnumeratorOptions small_bounds(bool unit_check) {
  EnumeratorOptions o;
  o.max_depth = 3;
  o.max_nodes = 5;
  o.max_holes = 2;
  o.unit_check = unit_check;
  return o;
}

EnumeratorOptions sec61_bucket(std::vector<dsl::Op> ops) {
  EnumeratorOptions o;
  o.max_depth = 3;
  o.max_nodes = 7;
  o.max_holes = 3;
  o.bucket = std::move(ops);
  return o;
}

// A curated DSL at small_bounds(). With unit_check off, signals differ
// only by name, so those runs keep the first five signals (reno has five):
// every operator and rule stays in play, at a size Z3 drains in seconds
// (rate-delay's thirteen leaves take minutes a bucket).
dsl::Dsl space_dsl(const std::string& name, bool unit_check) {
  dsl::Dsl d = dsl::dsl_by_name(name);
  if (!unit_check && d.signals.size() > 5) d.signals.resize(5);
  return d;
}

// One case per distinct space: at small_bounds() delay7 and delay11 are
// rate-delay and vegas11 is vegas, and with five signals rate-delay is reno.
std::vector<std::tuple<std::string, bool>> distinct_spaces() {
  std::vector<std::tuple<std::string, bool>> out;
  std::set<std::tuple<bool, std::vector<dsl::Signal>, std::vector<dsl::Op>, bool>> seen;
  for (const bool unit_check : {true, false}) {
    for (const auto& name : dsl::curated_dsl_names()) {
      const dsl::Dsl d = space_dsl(name, unit_check);
      if (seen.emplace(unit_check, d.signals, d.ops, d.allow_constants).second) {
        out.emplace_back(name, unit_check);
      }
    }
  }
  return out;
}

class NativeSketchSpaceEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(NativeSketchSpaceEquivalence, EverySizeFeasibleBucketMatchesZ3PerSize) {
  const auto& [name, unit_check] = GetParam();
  const dsl::Dsl d = space_dsl(name, unit_check);
  auto& mismatch = obs::counter("synth.native_count_mismatch");
  const auto mismatch0 = mismatch.value();
  std::size_t checked = 0;
  for (const auto& b : make_buckets(d)) {
    EnumeratorOptions o = small_bounds(unit_check);
    o.bucket = b.ops;
    if (min_feasible_size(o) > *o.max_nodes) continue;
    EXPECT_EQ(native_per_size(d, o), z3_per_size(d, o)) << name << " " << b.label;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(mismatch.value(), mismatch0);
}

INSTANTIATE_TEST_SUITE_P(CuratedDsls, NativeSketchSpaceEquivalence,
                         ::testing::ValuesIn(distinct_spaces()), [](const auto& info) {
                           std::string n = std::get<0>(info.param);
                           std::erase(n, '-');
                           return n + (std::get<1>(info.param) ? "_units" : "_no_units");
                         });

TEST(NativeSketchSpace, UnbucketedSpaceMatchesZ3PerSize) {
  const dsl::Dsl d = dsl::reno_dsl();
  const EnumeratorOptions o = small_bounds(true);
  EXPECT_EQ(native_per_size(d, o), z3_per_size(d, o));
}

TEST(NativeSketchSpace, SpaceWithoutConstantsMatchesZ3PerSize) {
  dsl::Dsl d = dsl::cubic_dsl();
  d.allow_constants = false;
  const EnumeratorOptions o = small_bounds(true);
  EXPECT_EQ(native_per_size(d, o), z3_per_size(d, o));
}

TEST(NativeSketchSpace, Sec61BucketTotals) {
  const dsl::Dsl d = dsl::reno_dsl();
  using dsl::Op;
  const std::vector<std::pair<std::vector<Op>, std::size_t>> expected = {
      {{Op::kAdd}, 40}, {{Op::kAdd, Op::kDiv}, 127}, {{Op::kAdd, Op::kMul}, 172}};
  for (const auto& [ops, total] : expected) {
    SketchSpace space(d, sec61_bucket(ops));
    EXPECT_TRUE(space.advance(SIZE_MAX));
    EXPECT_EQ(space.distinct(), total) << bucket_label(ops);
  }
  // Every tree the encoding admits is counted, simplifiable ones included:
  // Z3 decodes 764 models for {+,*} when it runs to its own end.
  SketchSpace space(d, sec61_bucket({Op::kAdd, Op::kMul}));
  space.advance(SIZE_MAX);
  EXPECT_EQ(space.trees(), 764u);
}

TEST(NativeSketchSpace, StreamEndsAtItsLastSketch) {
  // {+,*} at §6.1's bounds emits its 172nd and last sketch at model 574;
  // the count ends the stream there instead of after 190 more models and
  // the UNSAT proofs.
  auto& by_count = obs::counter("synth.streams_ended_by_count");
  auto& mismatch = obs::counter("synth.native_count_mismatch");
  auto& count_us = obs::histogram("synth.native_count_us");
  const auto by_count0 = by_count.value();
  const auto mismatch0 = mismatch.value();
  const auto count_us0 = count_us.count();
  SketchEnumerator e(dsl::reno_dsl(), sec61_bucket({dsl::Op::kAdd, dsl::Op::kMul}));
  while (e.next()) {
  }
  EXPECT_TRUE(e.exhausted());
  EXPECT_EQ(e.sketches_emitted(), 172u);
  EXPECT_EQ(e.models_enumerated(), 574u);
  EXPECT_EQ(by_count.value(), by_count0 + 1);
  EXPECT_EQ(mismatch.value(), mismatch0);
  EXPECT_GT(count_us.count(), count_us0);
}

TEST(NativeSketchSpace, LedgerIsExportedOnceAProducerExists) {
  EnumeratorOptions o = small_bounds(true);
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd};
  SketchEnumerator e(dsl::reno_dsl(), o);
  const std::string text = obs::prometheus_text();
  for (const char* name : {"abg_synth_streams_ended_by_count", "abg_synth_native_count_mismatch",
                           "abg_synth_native_count_us_count"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(NativeSketchSpace, AdvancesInBoundedSteps) {
  const dsl::Dsl d = dsl::reno_dsl();
  const EnumeratorOptions o = sec61_bucket({dsl::Op::kAdd, dsl::Op::kMul});
  SketchSpace whole(d, o);
  ASSERT_TRUE(whole.advance(SIZE_MAX));
  SketchSpace stepped(d, o);
  std::size_t limit = 0;
  while (!stepped.advance(limit)) {
    EXPECT_EQ(stepped.work(), limit);
    limit += 97;
  }
  EXPECT_EQ(stepped.work(), whole.work());
  EXPECT_EQ(stepped.trees(), whole.trees());
  EXPECT_EQ(stepped.distinct(), whole.distinct());
}

TEST(NativeSketchSpace, SizeInfeasibleBucketIsEmpty) {
  EnumeratorOptions o = small_bounds(true);
  o.bucket = std::vector<dsl::Op>{dsl::Op::kAdd, dsl::Op::kMul, dsl::Op::kDiv};
  SketchSpace space(dsl::reno_dsl(), o);
  EXPECT_TRUE(space.advance(0));
  EXPECT_EQ(space.distinct(), 0u);
  EXPECT_EQ(space.work(), 0u);
}

}  // namespace
}  // namespace abg::synth
