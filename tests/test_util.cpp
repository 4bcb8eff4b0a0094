#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/cancellation.hpp"
#include "util/csv.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace abg::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(9, 9), 9);
}

TEST(Rng, NormalHasRoughMoments) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(1.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ChanceExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ExponentialPositiveWithRoughMean) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.exponential(2.0);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng r(19);
  auto idx = r.sample_indices(10, 5);
  ASSERT_EQ(idx.size(), 5u);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 5u);
  for (auto i : idx) EXPECT_LT(i, 10u);
}

TEST(Rng, SampleIndicesCapsAtN) {
  Rng r(19);
  EXPECT_EQ(r.sample_indices(3, 10).size(), 3u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, PropagatesExceptionsThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

// Every row of `text` through CsvReader, copied out of the reader's views.
std::vector<std::vector<std::string>> read_rows(std::string_view text) {
  CsvReader reader(text);
  std::vector<std::string_view> fields;
  std::vector<std::vector<std::string>> rows;
  while (reader.next_row(&fields)) rows.emplace_back(fields.begin(), fields.end());
  return rows;
}

// The string-per-field CSV parser CsvReader replaced, kept as the oracle. It
// dropped every '\r' outside quotes; CsvReader drops only a CRLF's.
std::vector<std::vector<std::string>> reference_parse_csv(const std::string& content) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < content.size() && content[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  if (!field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

// The strtod-based parse_double that the from_chars path replaced.
bool reference_parse_double(const std::string& field, double* out) {
  if (field.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end != field.c_str() + field.size()) return false;
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) return false;
  *out = v;
  return true;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double double_of(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

std::string printf_g12(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

TEST(Csv, RoundTripsSimpleRows) {
  CsvWriter w;
  w.add_row({"a", "b", "c"});
  w.add_row({"1", "2", "3"});
  auto rows = read_rows(w.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Csv, QuotesFieldsWithSeparators) {
  CsvWriter w;
  w.add_row({"x,y", "plain", "has\"quote"});
  auto rows = read_rows(w.str());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "x,y");
  EXPECT_EQ(rows[0][2], "has\"quote");
}

TEST(Csv, NumericRowsRoundTripPrecisely) {
  CsvWriter w;
  w.add_row_numeric({1.0 / 3.0, 1e-9, 123456789.123});
  auto rows = read_rows(w.str());
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_NEAR(std::stod(rows[0][0]), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(std::stod(rows[0][1]), 1e-9, 1e-18);
}

TEST(Csv, ParsesCrlf) {
  auto rows = read_rows("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(Csv, KeepsCarriageReturnsThatEndNoLine) {
  const auto rows = read_rows("1.0\r5,x\r\r\n\"q\r\",y\r");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"1.0\r5", "x\r"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"q\r", "y\r"}));
}

// Random texts over the characters that steer the tokenizer: without a '\r',
// CsvReader must split them exactly as the parser it replaced did, quoted
// newlines, unterminated quotes and a last line without "\n" included.
TEST(Csv, ReaderMatchesReferenceParser) {
  Rng rng(2024);
  const char alphabet[] = {'a', '1', ',', '"', '\n'};
  for (int t = 0; t < 20000; ++t) {
    std::string text(rng.next_u64() % 24, ' ');
    for (char& c : text) c = alphabet[rng.next_u64() % sizeof(alphabet)];
    ASSERT_EQ(read_rows(text), reference_parse_csv(text)) << "text: " << text;
  }
}

TEST(Csv, FormatterMatchesPrintfG12) {
  std::vector<double> values = {
      0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
      1e-5, 9.99999999999e-6, 0.0001, 9.999999999995e-5, 0.000099999999999949,
      999999999999.5, 999999999999.49, 1e12, 1e11, 123456789012.0, 1.0 / 3.0,
      DBL_MAX, -DBL_MAX, DBL_MIN, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  Rng rng(12);
  for (int i = 0; i < 200000; ++i) values.push_back(double_of(rng.next_u64()));
  for (int i = 0; i < 50000; ++i) values.push_back(rng.uniform(-1e7, 1e7));
  for (int i = 0; i < 50000; ++i) values.push_back(rng.uniform());
  for (const double v : values) {
    std::string got;
    append_number(&got, v);
    ASSERT_EQ(got, printf_g12(v)) << "bits 0x" << std::hex << bits_of(v);
  }
}

TEST(Csv, ParseDoubleMatchesStrtodReference) {
  auto check = [](const std::string& text) -> testing::AssertionResult {
    double got = 0.0, want = 0.0;
    const bool ok = parse_double(text, &got);
    if (ok != reference_parse_double(text, &want)) {
      return testing::AssertionFailure() << "'" << text << "' accepted: " << ok;
    }
    if (ok && bits_of(got) != bits_of(want)) {
      return testing::AssertionFailure() << "'" << text << "' bits 0x" << std::hex
                                         << bits_of(got) << " vs 0x" << bits_of(want);
    }
    return testing::AssertionSuccess();
  };
  for (const char* text : {"", " 1", "+1", "1e400", "-1e400", "1e-400", "4.9e-324", "0x1.8p3",
                           "inf", "nan", "1.0x", "--1", "1,0", "-0", "1.", ".5", ".", "-",
                           "1e", "1e+5", "-nan", "-inf", "infinity", "nan(7)", "1.0\r5",
                           "2.4703282292062328e-324", "1.7976931348623158e308",
                           "1.7976931348623159e308"}) {
    ASSERT_TRUE(check(text));
  }
  // Random doubles in each format a trace or checkpoint could hold.
  Rng rng(77);
  char buf[64];
  for (int i = 0; i < 100000; ++i) {
    const double v = i % 2 == 0 ? double_of(rng.next_u64()) : rng.uniform(-1e6, 1e6);
    for (const char* fmt : {"%.12g", "%.17g", "%a", "%.3e"}) {
      std::snprintf(buf, sizeof(buf), fmt, v);
      ASSERT_TRUE(check(buf));
    }
  }
  // Short strings over the characters of a decimal, to hunt for any text the
  // two parsers accept differently.
  const char alphabet[] = {'0', '1', '9', '.', '-', '+', 'e', 'E', 'x', ' '};
  for (int i = 0; i < 50000; ++i) {
    std::string text(1 + rng.next_u64() % 8, ' ');
    for (char& c : text) c = alphabet[rng.next_u64() % sizeof(alphabet)];
    ASSERT_TRUE(check(text));
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), 1.0);
}

// --- util::Retry under a deterministic clock (ISSUE 8 satellite) ------------

TEST(Retry, SucceedsWithoutSleepingWhenFirstAttemptPasses) {
  std::vector<double> sleeps;
  RetryPolicy policy;
  policy.max_attempts = 5;
  Retry retry(policy, [&](double s) { sleeps.push_back(s); });
  int calls = 0;
  const Status st = retry.run([&] {
    ++calls;
    return Status::ok();
  });
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(Retry, BackoffScheduleIsExponentialCappedAndDeterministic) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_s = 0.1;
  policy.multiplier = 2.0;
  policy.max_backoff_s = 0.5;
  policy.jitter_frac = 0.0;  // exact schedule
  std::vector<double> sleeps;
  Retry retry(policy, [&](double s) { sleeps.push_back(s); });
  int calls = 0;
  const Status st = retry.run([&] {
    ++calls;
    return Status(StatusCode::kIoError, "transient");
  });
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 6);
  // 0.1, 0.2, 0.4, then capped at 0.5 — one delay per retry (5 of them).
  ASSERT_EQ(sleeps.size(), 5u);
  EXPECT_DOUBLE_EQ(sleeps[0], 0.1);
  EXPECT_DOUBLE_EQ(sleeps[1], 0.2);
  EXPECT_DOUBLE_EQ(sleeps[2], 0.4);
  EXPECT_DOUBLE_EQ(sleeps[3], 0.5);
  EXPECT_DOUBLE_EQ(sleeps[4], 0.5);
  // Exhaustion is reported in the message so operators see the budget.
  EXPECT_NE(st.message().find("after 6 attempts"), std::string::npos);
}

TEST(Retry, JitterStaysWithinConfiguredBandAndIsSeeded) {
  RetryPolicy policy;
  policy.initial_backoff_s = 1.0;
  policy.multiplier = 1.0;
  policy.max_backoff_s = 10.0;
  policy.jitter_frac = 0.25;
  policy.seed = 99;
  Retry a(policy), b(policy);
  for (int attempt = 1; attempt <= 20; ++attempt) {
    const double da = a.backoff_s(attempt);
    EXPECT_GE(da, 0.75);
    EXPECT_LE(da, 1.25);
    // Same seed => same jitter stream (deterministic schedules in tests).
    EXPECT_DOUBLE_EQ(da, b.backoff_s(attempt));
  }
}

TEST(Retry, NonRetryableCodeFailsImmediately) {
  std::vector<double> sleeps;
  RetryPolicy policy;
  policy.max_attempts = 5;
  Retry retry(policy, [&](double s) { sleeps.push_back(s); });
  int calls = 0;
  const Status st = retry.run([&] {
    ++calls;
    return Status(StatusCode::kInvalidArgument, "permanent");
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
  // No "after N attempts" context: the retry loop never engaged.
  EXPECT_EQ(st.message(), "permanent");
}

TEST(Retry, RecoversWhenALaterAttemptSucceeds) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter_frac = 0.0;
  Retry retry(policy, [](double) {});
  int calls = 0;
  const Status st = retry.run([&] {
    return ++calls < 3 ? Status(StatusCode::kIoError, "flaky") : Status::ok();
  });
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(calls, 3);
}

// A reader that sees a token cancelled must see why, on the token that was
// cancelled and through a token linked to it: the run that reads
// cancelled() then reason() reports that reason as its status, and kOk there
// would pass a cut-short search off as a complete one. Two cancellers race
// each round's compare-exchange while two readers spin on the round's
// tokens.
TEST(CancellationToken, ReasonIsSetWhenCancelledIsSeen) {
  constexpr int kRounds = 2000;
  std::vector<std::unique_ptr<CancellationToken>> own(kRounds);
  std::vector<std::unique_ptr<CancellationToken>> parent(kRounds);
  std::vector<std::unique_ptr<CancellationToken>> linked(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    own[r] = std::make_unique<CancellationToken>();
    parent[r] = std::make_unique<CancellationToken>();
    linked[r] = std::make_unique<CancellationToken>(parent[r].get());
  }
  std::atomic<int> own_bad{0};
  std::atomic<int> linked_bad{0};
  auto read = [](const std::vector<std::unique_ptr<CancellationToken>>& tokens,
                 std::atomic<int>* bad) {
    for (int r = 0; r < kRounds; ++r) {
      while (!tokens[r]->cancelled()) {
      }
      if (tokens[r]->reason() != StatusCode::kTimeout) bad->fetch_add(1);
    }
  };
  auto cancel = [&] {
    for (int r = 0; r < kRounds; ++r) {
      own[r]->cancel(StatusCode::kTimeout);
      parent[r]->cancel(StatusCode::kTimeout);
    }
  };
  std::thread own_reader(read, std::cref(own), &own_bad);
  std::thread linked_reader(read, std::cref(linked), &linked_bad);
  std::thread c1(cancel);
  std::thread c2(cancel);
  for (auto* t : {&own_reader, &linked_reader, &c1, &c2}) t->join();
  EXPECT_EQ(own_bad.load(), 0);
  EXPECT_EQ(linked_bad.load(), 0);
  // First cancel wins, and kOk cannot un-cancel or mask a token.
  own[0]->cancel(StatusCode::kCancelled);
  own[0]->cancel(StatusCode::kOk);
  EXPECT_EQ(own[0]->reason(), StatusCode::kTimeout);
  CancellationToken fresh;
  fresh.cancel(StatusCode::kOk);
  EXPECT_TRUE(fresh.cancelled());
  EXPECT_EQ(fresh.reason(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace abg::util
