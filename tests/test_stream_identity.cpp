// The sketch stream must not depend on where the allocator puts Z3's memory.
// The enumerator fixes glibc's mmap threshold, so each context's blocks are
// fresh mappings whose addresses depend on everything the process built and
// freed before. Z3's model order must not: every Reno bucket that builds a
// producer at the §6.1 quick-scale bounds gives the same first 64 sketches
// whether its producer is the first one in a fresh process, follows 8
// producers built and destroyed on other threads, or is built while 8 other
// producers are live.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dsl/dsl.hpp"
#include "synth/buckets.hpp"
#include "synth/enumerator.hpp"

namespace abg::synth {
namespace {

constexpr std::size_t kPrefix = 64;
constexpr std::size_t kOthers = 8;
constexpr int kOtherSketches = 16;  // each other producer solves this far

// The quick-scale bounds of bench_sec61_search_efficiency.
EnumeratorOptions quick_options(const Bucket& b) {
  EnumeratorOptions o;
  o.bucket = b.ops;
  o.max_depth = 3;
  o.max_nodes = 7;
  o.max_holes = 3;
  return o;
}

// A bucket builds a producer only if a sketch of exactly its operators fits.
bool builds_producer(const Bucket& b, const EnumeratorOptions& o) {
  int size = 1;
  for (dsl::Op op : b.ops) size += dsl::op_arity(op);
  return size <= *o.max_nodes;
}

std::uint64_t prefix_hash(const dsl::Dsl& d, const EnumeratorOptions& o) {
  return sketch_stream_hash(enumerate_all(d, o, kPrefix));
}

TEST(SketchStream, StreamIndependentOfAllocationHistory) {
  // "threadsafe" re-executes the binary for each death test, so the child's
  // producer is the first in its process.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const dsl::Dsl reno = dsl::reno_dsl();
  std::vector<EnumeratorOptions> opts;
  for (const auto& b : make_buckets(reno)) {
    if (builds_producer(b, quick_options(b))) opts.push_back(quick_options(b));
  }
  ASSERT_GT(opts.size(), kOthers);
  const std::size_t n = opts.size();
  auto path = [](std::size_t i) {
    return ::testing::TempDir() + "abg_stream_identity_" + std::to_string(i) + ".txt";
  };

  // Nothing before this loop builds a producer: each child computes its
  // bucket's hash as the process's first Z3 context and exits.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EXIT(
        {
          std::ofstream(path(i)) << prefix_hash(reno, opts[i]) << "\n";
          std::exit(0);
        },
        ::testing::ExitedWithCode(0), "")
        << "bucket " << i;
  }
  std::vector<std::uint64_t> fresh(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::ifstream in(path(i));
    ASSERT_TRUE(in >> fresh[i]) << "bucket " << i;
    std::remove(path(i).c_str());
  }

  // 8 other producers, each on its own thread, solving a little: the first
  // 8 buckets at max_holes 2, a spec no target shares. Kept in *live, or
  // destroyed on their threads when live is null.
  auto run_others = [&](std::vector<std::unique_ptr<SketchEnumerator>>* live) {
    std::vector<std::unique_ptr<SketchEnumerator>> others(kOthers);
    std::vector<std::thread> threads;
    for (std::size_t j = 0; j < kOthers; ++j) {
      threads.emplace_back([&, j] {
        EnumeratorOptions o = opts[j];
        o.max_holes = 2;
        auto e = std::make_unique<SketchEnumerator>(reno, o);
        for (int k = 0; k < kOtherSketches && e->next(); ++k) {
        }
        if (live != nullptr) others[j] = std::move(e);
      });
    }
    for (auto& t : threads) t.join();
    if (live != nullptr) *live = std::move(others);
  };

  // Targets run in reverse order here and in order below, so each one also
  // follows a different set of torn-down targets in the two cases.
  run_others(nullptr);
  for (std::size_t i = n; i-- > 0;) {
    EXPECT_EQ(prefix_hash(reno, opts[i]), fresh[i]) << "after 8 torn down, bucket " << i;
  }

  std::vector<std::unique_ptr<SketchEnumerator>> live;
  run_others(&live);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(prefix_hash(reno, opts[i]), fresh[i]) << "beside 8 live, bucket " << i;
  }
}

}  // namespace
}  // namespace abg::synth
