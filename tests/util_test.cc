#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>

#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/ordered_mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad dim");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

Status FailingHelper() { return Status::IoError("disk"); }

Status PropagationSite() {
  SEQFM_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_EQ(PropagationSite().code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  SEQFM_ASSIGN_OR_RETURN(int h, HalfOf(x));
  return HalfOf(h);
}

TEST(ResultTest, AssignOrReturnChains) {
  EXPECT_EQ(*QuarterOf(8), 2);
  EXPECT_FALSE(QuarterOf(6).ok());  // 6/2 = 3, odd
  EXPECT_FALSE(QuarterOf(7).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(10);
  double total = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += rng.Uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(12);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(14);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(15);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to match
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.Split();
  // Child continues deterministically but differs from the parent stream.
  Rng parent2(17);
  Rng child2 = parent2.Split();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(child.NextUint64(), child2.NextUint64());
  }
}

TEST(RngTest, SplitNChildrenAreDeterministic) {
  Rng a(77), b(77);
  auto kids_a = a.SplitN(5);
  auto kids_b = b.SplitN(5);
  ASSERT_EQ(kids_a.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    for (int d = 0; d < 20; ++d) {
      EXPECT_EQ(kids_a[i].NextUint64(), kids_b[i].NextUint64());
    }
  }
}

TEST(RngTest, SplitNChildrenAreMutuallyIndependent) {
  Rng parent(78);
  auto kids = parent.SplitN(4);
  // Sibling streams (and the continued parent stream) should not collide.
  for (size_t i = 0; i < kids.size(); ++i) {
    for (size_t j = i + 1; j < kids.size(); ++j) {
      Rng x = kids[i], y = kids[j];
      int same = 0;
      for (int d = 0; d < 64; ++d) same += (x.NextUint64() == y.NextUint64());
      EXPECT_LT(same, 2) << "children " << i << " and " << j;
    }
  }
  Rng child = kids[0];
  int same = 0;
  for (int d = 0; d < 64; ++d) {
    same += (parent.NextUint64() == child.NextUint64());
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitStreamsSurviveUniformity) {
  // The hardened Split() must still give statistically uniform children.
  Rng parent(79);
  auto kids = parent.SplitN(8);
  for (auto& kid : kids) {
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += kid.Uniform();
    EXPECT_NEAR(total / n, 0.5, 0.02);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  util::ThreadPool pool(4);
  const size_t n = 100000;
  std::vector<int> hits(n, 0);
  pool.ParallelFor(0, n, 1024, [&hits](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) ++hits[i];
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const auto caller = std::this_thread::get_id();
  bool same_thread = true;
  pool.ParallelFor(0, 100, 1, [&](size_t, size_t) {
    same_thread = same_thread && (std::this_thread::get_id() == caller);
  });
  EXPECT_TRUE(same_thread);
}

TEST(ThreadPoolTest, SmallRangesStaySerialOnCaller) {
  util::ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> same_thread{true};
  // n <= grain -> must run inline on the calling thread.
  pool.ParallelFor(0, 100, 100, [&](size_t, size_t) {
    if (std::this_thread::get_id() != caller) same_thread = false;
  });
  EXPECT_TRUE(same_thread.load());
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineAndCoversRange) {
  util::ThreadPool pool(4);
  const size_t outer = 64, inner = 64;
  std::vector<int> hits(outer * inner, 0);
  pool.ParallelFor(0, outer, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      pool.ParallelFor(0, inner, 1, [&, i](size_t ib, size_t ie) {
        for (size_t j = ib; j < ie; ++j) ++hits[i * inner + j];
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1);
}

TEST(ThreadPoolTest, BackToBackRegionsWork) {
  util::ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(0, 1000, 10, [&total](size_t b, size_t e) {
      total += e - b;
    });
  }
  EXPECT_EQ(total.load(), 50u * 1000u);
}

TEST(ThreadPoolTest, GlobalPoolResizes) {
  util::SetGlobalThreads(3);
  EXPECT_EQ(util::GlobalThreads(), 3u);
  util::SetGlobalThreads(1);
  EXPECT_EQ(util::GlobalThreads(), 1u);
}

TEST(ThreadPoolTest, SetGlobalThreadsKeepsPoolReferenceValid) {
  // SetGlobalThreads must resize the pool in place: long-lived ThreadPool&
  // handles from GlobalPool() (the old implementation destroyed and
  // replaced the object, leaving them dangling) stay usable.
  util::SetGlobalThreads(2);
  util::ThreadPool& held = util::GlobalPool();
  util::SetGlobalThreads(4);
  EXPECT_EQ(&util::GlobalPool(), &held);
  EXPECT_EQ(held.num_threads(), 4u);
  std::atomic<size_t> covered{0};
  held.ParallelFor(0, 1000, 10,
                   [&covered](size_t b, size_t e) { covered += e - b; });
  EXPECT_EQ(covered.load(), 1000u);
  util::SetGlobalThreads(1);
  EXPECT_EQ(&util::GlobalPool(), &held);
}

TEST(ThreadPoolTest, ResizeWhileOtherThreadsRunParallelForIsSafe) {
  // Regression for the SetGlobalThreads use-after-free window: resizing
  // drains the active region instead of destroying the pool under running
  // ParallelFor calls. Meaningful failure mode under ASan/TSan.
  util::SetGlobalThreads(4);
  std::atomic<bool> stop{false};
  std::vector<std::thread> users;
  for (int t = 0; t < 3; ++t) {
    users.emplace_back([&stop]() {
      util::ThreadPool& pool = util::GlobalPool();  // held across resizes
      while (!stop.load(std::memory_order_relaxed)) {
        std::atomic<size_t> covered{0};
        pool.ParallelFor(0, 4096, 64,
                         [&covered](size_t b, size_t e) { covered += e - b; });
        EXPECT_EQ(covered.load(), 4096u);
      }
    });
  }
  for (size_t n : {1u, 3u, 2u, 4u, 1u, 4u, 2u, 1u}) {
    util::SetGlobalThreads(n);
    EXPECT_EQ(util::GlobalThreads(), n);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& u : users) u.join();
  util::SetGlobalThreads(1);
}

TEST(ThreadPoolDeathTest, ResizeFromInsidePoolWorkDies) {
  // Resizing from a pool task would self-deadlock on the region lock; the
  // check must fire before the lock is touched.
  EXPECT_DEATH(
      {
        util::ThreadPool pool(2);
        pool.ParallelFor(0, 16, 1, [&pool](size_t, size_t) { pool.Resize(3); });
      },
      "inside pool work");
}

TEST(ThreadPoolTest, DefaultThreadsRejectsMalformedEnv) {
  const char* old = std::getenv("SEQFM_THREADS");
  const std::string saved = old ? old : "";
  unsetenv("SEQFM_THREADS");
  const size_t fallback = util::DefaultThreads();  // hardware concurrency

  setenv("SEQFM_THREADS", "5", 1);
  EXPECT_EQ(util::DefaultThreads(), 5u);
  // Trailing garbage must not silently parse as the leading digits.
  setenv("SEQFM_THREADS", "5garbage", 1);
  EXPECT_EQ(util::DefaultThreads(), fallback);
  setenv("SEQFM_THREADS", "4.5", 1);
  EXPECT_EQ(util::DefaultThreads(), fallback);
  setenv("SEQFM_THREADS", "garbage", 1);
  EXPECT_EQ(util::DefaultThreads(), fallback);
  setenv("SEQFM_THREADS", "", 1);
  EXPECT_EQ(util::DefaultThreads(), fallback);
  setenv("SEQFM_THREADS", "0", 1);
  EXPECT_EQ(util::DefaultThreads(), fallback);
  setenv("SEQFM_THREADS", "-2", 1);
  EXPECT_EQ(util::DefaultThreads(), fallback);

  if (old) {
    setenv("SEQFM_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("SEQFM_THREADS");
  }
}

// ---------------------------------------------------------------------------
// FNV-1a (util/hash.h)
// ---------------------------------------------------------------------------

TEST(HashTest, Fnv1a64KnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(util::Fnv1a64("", 0), util::kFnv64Offset);
  EXPECT_EQ(util::Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::Fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(HashTest, FnvUpdateStreamsLikeOneShot) {
  const char data[] = "abcdef";
  uint64_t streamed = util::kFnv64Offset;
  streamed = util::FnvUpdate(streamed, data, 2);
  streamed = util::FnvUpdate(streamed, data + 2, 4);
  EXPECT_EQ(streamed, util::Fnv1a64(data, 6));
}

TEST(ZipfSamplerTest, LowIndicesAreMorePopular) {
  Rng rng(18);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfSamplerTest, ExponentZeroIsUniform) {
  Rng rng(19);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

// ---------------------------------------------------------------------------
// FlagParser
// ---------------------------------------------------------------------------

TEST(FlagParserTest, ParsesTypedFlags) {
  const char* argv[] = {"prog", "--epochs=7", "--lr=0.5", "--verbose",
                        "--name=gowalla", "positional"};
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(6, argv).ok());
  EXPECT_EQ(flags.GetInt("epochs", 0), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.0), 0.5);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetString("name", ""), "gowalla");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagParserTest, ExplicitFalse) {
  const char* argv[] = {"prog", "--verbose=false", "--x=0"};
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(3, argv).ok());
  EXPECT_FALSE(flags.GetBool("verbose", true));
  EXPECT_FALSE(flags.GetBool("x", true));
}

TEST(FlagParserTest, BareFlagIsABoolButNotAString) {
  // A bare path flag must not read back as the path "true" (a bare --json
  // would write ./true). GetBool keeps the bare form; GetString refuses it,
  // naming the flag.
  const char* argv[] = {"prog", "--json", "--out=", "--checkpoint=a",
                        "--checkpoint"};
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(5, argv).ok());
  EXPECT_TRUE(flags.Has("json"));
  EXPECT_TRUE(flags.GetBool("json", false));
  EXPECT_EQ(flags.GetString("out", "default"), "");  // explicit empty value
  EXPECT_DEATH((void)flags.GetString("json", ""),
               "flag --json requires a value");
  // The last occurrence wins, bare or not.
  EXPECT_DEATH((void)flags.GetString("checkpoint", ""),
               "flag --checkpoint requires a value");
  const char* argv2[] = {"prog", "--json", "--json=out.json"};
  FlagParser later_value;
  ASSERT_TRUE(later_value.Parse(3, argv2).ok());
  EXPECT_EQ(later_value.GetString("json", ""), "out.json");
}

TEST(FlagParserTest, RejectsMalformed) {
  const char* argv1[] = {"prog", "--"};
  FlagParser f1;
  EXPECT_FALSE(f1.Parse(2, argv1).ok());
  const char* argv2[] = {"prog", "--=3"};
  FlagParser f2;
  EXPECT_FALSE(f2.Parse(2, argv2).ok());
}

TEST(FlagParserTest, MalformedNumericValuesFallBackToDefault) {
  // strtoll/strtod with a null endptr used to accept "4garbage" as 4 and
  // silently clamp overflow; every malformed token must now warn and use
  // the caller's default instead (the SEQFM_THREADS policy).
  const char* argv[] = {"prog",
                        "--trailing=4garbage",
                        "--empty=",
                        "--words=abc",
                        "--overflow=99999999999999999999999999",
                        "--underflow=-99999999999999999999999999",
                        "--dbl-trailing=0.5x",
                        "--dbl-overflow=1e999999",
                        "--bare"};  // bare flag: value is the string "true"
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(9, argv).ok());
  EXPECT_EQ(flags.GetInt("trailing", 7), 7);
  EXPECT_EQ(flags.GetInt("empty", 7), 7);
  EXPECT_EQ(flags.GetInt("words", 7), 7);
  EXPECT_EQ(flags.GetInt("overflow", 7), 7);
  EXPECT_EQ(flags.GetInt("underflow", 7), 7);
  EXPECT_EQ(flags.GetInt("bare", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("trailing", 0.25), 0.25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("dbl-trailing", 0.25), 0.25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("dbl-overflow", 0.25), 0.25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("empty", 0.25), 0.25);
}

TEST(FlagParserTest, WellFormedNumericValuesStillParse) {
  const char* argv[] = {"prog", "--neg=-12", "--zero=0", "--big=123456789012",
                        "--sci=2.5e-3", "--negf=-0.75", "--inf=1e308"};
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(7, argv).ok());
  EXPECT_EQ(flags.GetInt("neg", 0), -12);
  EXPECT_EQ(flags.GetInt("zero", 9), 0);
  EXPECT_EQ(flags.GetInt("big", 0), 123456789012LL);
  EXPECT_DOUBLE_EQ(flags.GetDouble("sci", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("negf", 0.0), -0.75);
  EXPECT_DOUBLE_EQ(flags.GetDouble("inf", 0.0), 1e308);
}

// ---------------------------------------------------------------------------
// bench::Percentile (nearest-rank; shared by bench_serving / bench_loadgen)
// ---------------------------------------------------------------------------

TEST(PercentileTest, NearestRankOnKnownVectors) {
  // 1..100: nearest-rank pN is exactly N. The pre-fix q*n indexing returned
  // 100 (the max) for p99 here — the regression this test locks down.
  std::vector<double> v(100);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(bench::Percentile(&v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(bench::Percentile(&v, 0.90), 90.0);
  EXPECT_DOUBLE_EQ(bench::Percentile(&v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(bench::Percentile(&v, 1.0), 100.0);
  // p999 with only 100 samples is the max by construction.
  EXPECT_DOUBLE_EQ(bench::Percentile(&v, 0.999), 100.0);
}

TEST(PercentileTest, SmallAndDegenerateInputs) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(bench::Percentile(&empty, 0.99), 0.0);
  std::vector<double> one = {3.5};
  EXPECT_DOUBLE_EQ(bench::Percentile(&one, 0.01), 3.5);
  EXPECT_DOUBLE_EQ(bench::Percentile(&one, 0.99), 3.5);
  // Two samples: p50 is the first (rank ceil(0.5*2)=1), p99 the second.
  std::vector<double> two = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(bench::Percentile(&two, 0.50), 10.0);
  EXPECT_DOUBLE_EQ(bench::Percentile(&two, 0.99), 20.0);
}

TEST(PercentileTest, SortsInPlaceAndScalesToMs) {
  std::vector<double> v = {0.003, 0.001, 0.002};  // seconds, unsorted
  EXPECT_DOUBLE_EQ(bench::PercentileMs(&v, 0.50), 2.0);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  // p999 across 1000 samples picks rank 999 of 1000, not the max.
  std::vector<double> big(1000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i + 1);
  EXPECT_DOUBLE_EQ(bench::Percentile(&big, 0.999), 999.0);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(w.ElapsedSeconds(), 0.0);
  EXPECT_GE(w.ElapsedMillis(), w.ElapsedSeconds() * 1000.0 * 0.99);
}

// ---------------------------------------------------------------------------
// OrderedMutex: the lock-rank checker behind the serve layer's deadlock
// freedom (see util::lock_rank in ordered_mutex.h)
// ---------------------------------------------------------------------------

TEST(OrderedMutexTest, InRankOrderAcquisitionSucceeds) {
  util::OrderedMutex outer("test::outer", 100);
  util::OrderedMutex inner("test::inner", 200);
  {
    util::OrderedMutexLock a(outer);
    util::OrderedMutexLock b(inner);  // 100 -> 200: legal nesting
  }
  // Both released: re-acquiring either alone is fine.
  util::OrderedMutexLock again(outer);
}

TEST(OrderedMutexTest, ReleaseOrderNeedNotMirrorAcquisitionOrder) {
  util::OrderedMutex outer("test::outer", 100);
  util::OrderedMutex inner("test::inner", 200);
  outer.lock();
  inner.lock();
  outer.unlock();  // release outer first, inner stays held
  // With only rank 200 held, a new rank-300 acquisition is still legal.
  util::OrderedMutex next("test::next", 300);
  next.lock();
  next.unlock();
  inner.unlock();
}

TEST(OrderedMutexTest, RanksAreCheckedPerThread) {
  // A thread's held ranks do not leak into another thread: while this
  // thread holds rank 200, a second thread may freely take rank 100.
  util::OrderedMutex high("test::high", 200);
  util::OrderedMutex low("test::low", 100);
  util::OrderedMutexLock hold(high);
  std::thread other([&]() { util::OrderedMutexLock ok(low); });
  other.join();
}

TEST(OrderedMutexDeathTest, RankInversionDiesNamingBothLocks) {
  util::OrderedMutex outer("test::outer", 100);
  util::OrderedMutex inner("test::inner", 200);
  EXPECT_DEATH(
      {
        util::OrderedMutexLock a(inner);
        util::OrderedMutexLock b(outer);  // 200 -> 100: inversion
      },
      "lock-rank inversion: acquiring 'test::outer' \\(rank 100\\) while "
      "holding 'test::inner' \\(rank 200\\)");
}

TEST(OrderedMutexDeathTest, SameRankReentryDies) {
  util::OrderedMutex a("test::a", 100);
  util::OrderedMutex b("test::b", 100);
  // Equal ranks forbid nesting in either direction — including re-entrant
  // acquisition of the same mutex, which would self-deadlock.
  EXPECT_DEATH(
      {
        util::OrderedMutexLock first(a);
        util::OrderedMutexLock second(b);
      },
      "lock-rank inversion");
  EXPECT_DEATH(
      {
        util::OrderedMutexLock first(a);
        a.lock();
      },
      "lock-rank inversion");
}

TEST(OrderedMutexDeathTest, ReleasingAnUnheldLockDies) {
  util::OrderedMutex mu("test::mu", 100);
  EXPECT_DEATH(mu.unlock(),
               "releasing 'test::mu' which this thread does not hold");
}

// ---------------------------------------------------------------------------
// FailPoint: deterministic fault injection
// ---------------------------------------------------------------------------

class FailPointTest : public ::testing::Test {
 protected:
  ~FailPointTest() override { util::FailPoint::DisarmAll(); }
};

TEST_F(FailPointTest, DisarmedSitesTriggerZero) {
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(util::FailPoint::Trigger("never.armed"), 0);
  }
  EXPECT_EQ(util::FailPoint::Stats("never.armed").hits, 0u);
}

TEST_F(FailPointTest, NthModeFailsExactlyTheNthHit) {
  util::FailPoint::Spec spec;
  spec.mode = util::FailPoint::Mode::kNth;
  spec.n = 3;
  spec.error = 42;
  util::FailPoint::Arm("t.nth", spec);
  std::vector<int> got;
  for (int i = 0; i < 6; ++i) got.push_back(util::FailPoint::Trigger("t.nth"));
  EXPECT_EQ(got, (std::vector<int>{0, 0, 42, 0, 0, 0}));
  const auto stats = util::FailPoint::Stats("t.nth");
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.failures, 1u);
}

TEST_F(FailPointTest, EveryKModeFailsPeriodically) {
  util::FailPoint::Spec spec;
  spec.mode = util::FailPoint::Mode::kEveryK;
  spec.n = 2;
  util::FailPoint::Arm("t.every", spec);
  std::vector<int> got;
  for (int i = 0; i < 6; ++i) {
    got.push_back(util::FailPoint::Trigger("t.every"));
  }
  EXPECT_EQ(got, (std::vector<int>{0, 5, 0, 5, 0, 5}));  // default err = EIO
}

TEST_F(FailPointTest, ProbModeIsAPureFunctionOfSeedAndHitIndex) {
  util::FailPoint::Spec spec;
  spec.mode = util::FailPoint::Mode::kProb;
  spec.p = 0.5;
  spec.seed = 1234;
  util::FailPoint::Arm("t.prob", spec);
  std::vector<int> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(util::FailPoint::Trigger("t.prob"));
  }
  // Re-arming with the same seed resets the stream: identical sequence.
  util::FailPoint::Arm("t.prob", spec);
  std::vector<int> second;
  for (int i = 0; i < 64; ++i) {
    second.push_back(util::FailPoint::Trigger("t.prob"));
  }
  EXPECT_EQ(first, second);
  // And it actually mixes failures and passes at p = 0.5 over 64 draws.
  EXPECT_GT(util::FailPoint::Stats("t.prob").failures, 0u);
  EXPECT_LT(util::FailPoint::Stats("t.prob").failures, 64u);
}

TEST_F(FailPointTest, LimitBoundsInjectedFailuresThenHeals) {
  util::FailPoint::Spec spec;
  spec.mode = util::FailPoint::Mode::kEveryK;
  spec.n = 1;  // every hit would fail...
  spec.limit = 2;  // ...but the burst heals after two
  util::FailPoint::Arm("t.limit", spec);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (util::FailPoint::Trigger("t.limit") != 0) ++failures;
  }
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(util::FailPoint::Stats("t.limit").failures, 2u);
  EXPECT_EQ(util::FailPoint::Stats("t.limit").hits, 10u);
}

TEST_F(FailPointTest, ArmFromStringParsesTheSpecGrammar) {
  EXPECT_TRUE(util::FailPoint::ArmFromString("a.b=nth:2"));
  EXPECT_TRUE(util::FailPoint::ArmFromString("c.d=every:5:err=110"));
  EXPECT_TRUE(
      util::FailPoint::ArmFromString("e.f=prob:0.25:seed=7:limit=3"));
  const auto sites = util::FailPoint::ArmedSites();
  EXPECT_EQ(sites.size(), 3u);

  EXPECT_EQ(util::FailPoint::Trigger("a.b"), 0);
  EXPECT_EQ(util::FailPoint::Trigger("a.b"), 5);     // nth:2, default err
  EXPECT_EQ(util::FailPoint::Trigger("c.d"), 0);
  for (int i = 0; i < 3; ++i) util::FailPoint::Trigger("c.d");
  EXPECT_EQ(util::FailPoint::Trigger("c.d"), 110);   // hit 5 of every:5

  // Malformed specs arm nothing and say so.
  EXPECT_FALSE(util::FailPoint::ArmFromString(""));
  EXPECT_FALSE(util::FailPoint::ArmFromString("no-equals"));
  EXPECT_FALSE(util::FailPoint::ArmFromString("=nth:1"));
  EXPECT_FALSE(util::FailPoint::ArmFromString("x=badmode:1"));
  EXPECT_FALSE(util::FailPoint::ArmFromString("x=nth:0"));
  EXPECT_FALSE(util::FailPoint::ArmFromString("x=nth:abc"));
  EXPECT_FALSE(util::FailPoint::ArmFromString("x=prob:1.5"));
  EXPECT_FALSE(util::FailPoint::ArmFromString("x=nth:1:bogus=2"));
  EXPECT_FALSE(util::FailPoint::ArmFromString("x=nth:1:seed="));
  EXPECT_EQ(util::FailPoint::ArmedSites().size(), 3u);
}

TEST_F(FailPointTest, ArmFromEnvArmsEverySpecAndSkipsMalformed) {
  setenv("SEQFM_FAILPOINTS", "p.q=nth:1;;bad spec;r.s=every:2:err=71", 1);
  EXPECT_EQ(util::FailPoint::ArmFromEnv(), 2);
  unsetenv("SEQFM_FAILPOINTS");
  EXPECT_EQ(util::FailPoint::Trigger("p.q"), 5);
  util::FailPoint::Trigger("r.s");
  EXPECT_EQ(util::FailPoint::Trigger("r.s"), 71);
}

TEST_F(FailPointTest, ScopedFailPointDisarmsOnExit) {
  {
    util::FailPoint::Spec spec;
    spec.mode = util::FailPoint::Mode::kNth;
    spec.n = 1;
    util::ScopedFailPoint fp("t.scoped", spec);
    EXPECT_EQ(util::FailPoint::Trigger("t.scoped"), 5);
  }
  EXPECT_EQ(util::FailPoint::Trigger("t.scoped"), 0);
  EXPECT_TRUE(util::FailPoint::ArmedSites().empty());
}

}  // namespace
}  // namespace seqfm
