// Unit tests for the util module: Status/Result, metrics, CSV, properties,
// and the annotated synchronization primitives (Mutex/MutexLock/CondVar).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/metrics.h"
#include "util/properties.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace intellisphere {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table 'T'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table 'T'");
  EXPECT_EQ(s.ToString(), "NotFound: table 'T'");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kUnsupported, StatusCode::kFailedPrecondition,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r(Status::OK());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<double> HalfOfPositive(double x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x / 2;
}

Result<double> QuarterOfPositive(double x) {
  ISPHERE_ASSIGN_OR_RETURN(double h, HalfOfPositive(x));
  ISPHERE_ASSIGN_OR_RETURN(double q, HalfOfPositive(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacroChains) {
  auto ok = QuarterOfPositive(8.0);
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok.value(), 2.0);
  EXPECT_FALSE(QuarterOfPositive(-1.0).ok());
}

TEST(MetricsTest, MeanAndRmse) {
  std::vector<double> a = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(a).value(), 2.5);
  std::vector<double> p = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Rmse(a, p).value(), 0.0);
  std::vector<double> p2 = {2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Rmse(a, p2).value(), 1.0);
}

TEST(MetricsTest, RmsePercentMatchesPaperDefinition) {
  // e * 100 / v where v is the mean actual.
  std::vector<double> a = {10, 10};
  std::vector<double> p = {11, 9};
  EXPECT_DOUBLE_EQ(RmsePercent(a, p).value(), 10.0);
}

TEST(MetricsTest, ErrorsOnBadInput) {
  EXPECT_FALSE(Mean({}).ok());
  EXPECT_FALSE(Rmse({1}, {1, 2}).ok());
  EXPECT_FALSE(RmsePercent({0, 0}, {0, 0}).ok());  // zero mean
  EXPECT_FALSE(MeanRelativeError({0, 1}, {1, 1}).ok());  // non-positive actual
}

TEST(MetricsTest, FitLineRecoversExactLine) {
  std::vector<double> x = {0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double v : x) y.push_back(3.5 * v + 1.25);
  auto line = FitLine(x, y).value();
  EXPECT_NEAR(line.slope, 3.5, 1e-12);
  EXPECT_NEAR(line.intercept, 1.25, 1e-12);
  EXPECT_NEAR(line.r2, 1.0, 1e-12);
}

TEST(MetricsTest, FitLineRejectsConstantX) {
  EXPECT_FALSE(FitLine({1, 1, 1}, {1, 2, 3}).ok());
}

TEST(MetricsTest, RSquaredPenalizesBias) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> perfect = a;
  EXPECT_NEAR(RSquared(a, perfect).value(), 1.0, 1e-12);
  std::vector<double> biased = {3, 4, 5, 6};
  EXPECT_LT(RSquared(a, biased).value(), 0.0);
}

TEST(CsvTest, PrintsHeaderAndRows) {
  CsvTable t({"x", "y"});
  t.AddRow({1.0, 2.5});
  t.AddRow({3.0, 0.0314});
  std::ostringstream os;
  t.Print(os);
  EXPECT_EQ(os.str(), "x,y\n1,2.5\n3,0.0314\n");
}

TEST(CsvTest, TextRows) {
  CsvTable t({"name", "value"});
  t.AddTextRow({"alpha", "0.5"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_EQ(os.str(), "name,value\nalpha,0.5\n");
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(PropertiesTest, TypedRoundTrip) {
  Properties p;
  p.SetString("name", "hive");
  p.SetDouble("alpha", 0.5);
  p.SetInt("count", 42);
  p.SetBool("open", true);
  p.SetDoubleList("xs", {1.0, 2.5, -3.0});
  EXPECT_EQ(p.GetString("name").value(), "hive");
  EXPECT_DOUBLE_EQ(p.GetDouble("alpha").value(), 0.5);
  EXPECT_EQ(p.GetInt("count").value(), 42);
  EXPECT_TRUE(p.GetBool("open").value());
  EXPECT_EQ(p.GetDoubleList("xs").value(),
            (std::vector<double>{1.0, 2.5, -3.0}));
}

TEST(PropertiesTest, SerializeParseRoundTrip) {
  Properties p;
  p.SetDouble("pi", 3.14159265358979);
  p.SetString("s", "a=b still one value");
  p.SetDoubleList("empty", {});
  auto q = Properties::Parse(p.Serialize()).value();
  EXPECT_DOUBLE_EQ(q.GetDouble("pi").value(), 3.14159265358979);
  EXPECT_EQ(q.GetString("s").value(), "a=b still one value");
  EXPECT_TRUE(q.GetDoubleList("empty").value().empty());
}

TEST(PropertiesTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(Properties::Parse("no equals sign").ok());
  EXPECT_FALSE(Properties::Parse("=empty key").ok());
  // Comments and blank lines are allowed.
  auto p = Properties::Parse("# comment\n\nk=v\n").value();
  EXPECT_EQ(p.GetString("k").value(), "v");
}

TEST(PropertiesTest, TypeErrorsSurface) {
  Properties p;
  p.SetString("s", "not a number");
  EXPECT_FALSE(p.GetDouble("s").ok());
  EXPECT_FALSE(p.GetInt("s").ok());
  EXPECT_FALSE(p.GetBool("s").ok());
  EXPECT_EQ(p.GetString("missing").status().code(), StatusCode::kNotFound);
}

TEST(PropertiesTest, NonFiniteDoublesAreRejected) {
  Properties p;
  for (const char* text : {"nan", "inf", "-inf"}) {
    p.SetString("d", text);
    const Status status = p.GetDouble("d").status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(status.message().find("'d'"), std::string::npos) << text;
  }
  p.SetString("list", "1.5,nan,2");
  const Status status = p.GetDoubleList("list").status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("'list'"), std::string::npos);
  p.SetString("list", "1.5,-2e3");
  EXPECT_EQ(p.GetDoubleList("list").value(), (std::vector<double>{1.5, -2e3}));
}

TEST(PropertiesTest, EraseAndContains) {
  Properties p;
  p.SetInt("k", 1);
  EXPECT_TRUE(p.Contains("k"));
  EXPECT_TRUE(p.Erase("k"));
  EXPECT_FALSE(p.Contains("k"));
  EXPECT_FALSE(p.Erase("k"));
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    int64_t n = rng.UniformInt(-5, 5);
    EXPECT_GE(n, -5);
    EXPECT_LE(n, 5);
  }
}

TEST(RngTest, NoiseFactorHasFloor) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.NoiseFactor(5.0, 0.05), 0.05);
  }
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(3);
  auto p = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (size_t i : p) {
    ASSERT_LT(i, 100u);
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(RngTest, ForkDecorrelates) {
  // Forking advances the parent identically on both instances, and the
  // child does not replay the parent's stream.
  Rng a(7);
  Rng child_a = a.Fork();
  Rng b(7);
  Rng child_b = b.Fork();
  EXPECT_EQ(a.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30));
  EXPECT_EQ(child_a.UniformInt(0, 1 << 30), child_b.UniformInt(0, 1 << 30));
}

// --- thread annotations ----------------------------------------------------
//
// The wrappers are contracts first, code second: under clang the
// clang-analyze preset proves every GUARDED_BY access holds the right
// Mutex (DESIGN.md §13). These tests pin the runtime half of the contract
// on any compiler. All cross-thread traffic goes through ThreadPool — raw
// std::thread is a lint error even in tests.

TEST(MutexTest, TryLockReflectsHeldState) {
  Mutex mu;
  mu.Lock();
  ThreadPool pool(1);
  // Another thread must fail to acquire while we hold the lock…
  EXPECT_FALSE(pool.Submit([&mu] { return mu.TryLock(); }).get());
  mu.Unlock();
  // …and succeed (then release) once we let go.
  EXPECT_TRUE(pool.Submit([&mu] {
                    bool got = mu.TryLock();
                    if (got) mu.Unlock();
                    return got;
                  })
                  .get());
}

TEST(MutexTest, MutexLockProvidesMutualExclusion) {
  // A non-atomic counter bumped from many tasks is only correct if
  // MutexLock really serializes the critical sections.
  Mutex mu;
  int64_t counter GUARDED_BY(mu) = 0;
  constexpr int kTasks = 16;
  constexpr int kIncrementsPerTask = 10000;
  {
    ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&mu, &counter] {
        for (int i = 0; i < kIncrementsPerTask; ++i) {
          MutexLock lock(&mu);
          ++counter;
        }
      });
    }
    // Pool destruction drains the queue, so every task ran.
  }
  MutexLock lock(&mu);
  EXPECT_EQ(counter, int64_t{kTasks} * kIncrementsPerTask);
}

TEST(MutexTest, MutexLockReleasesOnScopeExit) {
  Mutex mu;
  { MutexLock lock(&mu); }
  // If the destructor failed to release, this TryLock would deadlock or
  // fail; it must succeed immediately.
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready GUARDED_BY(mu) = false;
  ThreadPool pool(1);
  std::future<int> waited = pool.Submit([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    return 42;
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyAll();
  // get() blocks until the waiter observed the predicate and returned —
  // proving Wait atomically released mu (the setter got in) and reacquired
  // it before re-checking.
  EXPECT_EQ(waited.get(), 42);
}

TEST(CondVarTest, NotifyOneWakesAWaiter) {
  Mutex mu;
  CondVar cv;
  int stage GUARDED_BY(mu) = 0;
  ThreadPool pool(1);
  std::future<void> done = pool.Submit([&] {
    MutexLock lock(&mu);
    while (stage == 0) cv.Wait(mu);
    stage = 2;
  });
  {
    MutexLock lock(&mu);
    stage = 1;
  }
  cv.NotifyOne();
  done.get();
  MutexLock lock(&mu);
  EXPECT_EQ(stage, 2);
}

}  // namespace
}  // namespace intellisphere
