// Unit tests for the ML module: matrix, dataset, scalers, linear
// regression, the MLP regressor, and the topology cross-validation search.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "ml/cross_validation.h"
#include "ml/dataset.h"
#include "ml/linear_regression.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "ml/scaler.h"
#include "util/metrics.h"

namespace intellisphere::ml {
namespace {

TEST(MatrixTest, MultiplyAndTranspose) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}}).value();
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}}).value();
  Matrix c = a.Multiply(b).value();
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50);
  Matrix t = a.Transposed();
  EXPECT_DOUBLE_EQ(t.At(0, 1), 3);
  EXPECT_DOUBLE_EQ(t.At(1, 0), 2);
}

TEST(MatrixTest, MultiplyDimensionMismatch) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_FALSE(a.Multiply(b).ok());
}

// Reference triple loop (naive r-c-k order) for checking the optimized
// kernels; EXPECT_DOUBLE_EQ works because the small integer-valued inputs
// multiply exactly.
Matrix ReferenceMultiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < b.cols(); ++c) {
      double s = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) s += a.At(r, k) * b.At(k, c);
      out.At(r, c) = s;
    }
  }
  return out;
}

TEST(MatrixTest, MultiplyIntoMatchesReference) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}}).value();
  Matrix b = Matrix::FromRows({{7, 8}, {9, 10}, {11, 12}}).value();
  Matrix expected = ReferenceMultiply(a, b);
  Matrix out;
  ASSERT_TRUE(a.MultiplyInto(b, &out).ok());
  ASSERT_EQ(out.rows(), 2u);
  ASSERT_EQ(out.cols(), 2u);
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      EXPECT_DOUBLE_EQ(out.At(r, c), expected.At(r, c));
    }
  }
}

TEST(MatrixTest, MultiplyIntoReusesAndReshapesOutput) {
  Matrix a = Matrix::FromRows({{1, 0}, {0, 1}, {2, 2}}).value();
  Matrix b = Matrix::FromRows({{3, 4, 5}, {6, 7, 8}}).value();
  // Start with stale contents and the wrong shape; MultiplyInto must
  // overwrite both (no accumulation into stale values).
  Matrix out(5, 1, /*fill=*/99.0);
  ASSERT_TRUE(a.MultiplyInto(b, &out).ok());
  ASSERT_EQ(out.rows(), 3u);
  ASSERT_EQ(out.cols(), 3u);
  Matrix expected = ReferenceMultiply(a, b);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(out.At(r, c), expected.At(r, c));
    }
  }
}

TEST(MatrixTest, MultiplyIntoDimensionMismatch) {
  Matrix a(2, 3), b(2, 3), out;
  EXPECT_FALSE(a.MultiplyInto(b, &out).ok());
}

TEST(MatrixTest, MultiplyHandlesZerosWithoutSkip) {
  // Rows dominated by zeros (the case the removed zero-skip branch targeted)
  // must still produce exact products.
  Matrix a = Matrix::FromRows({{0, 0, 0}, {0, 2, 0}}).value();
  Matrix b = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}}).value();
  Matrix c = a.Multiply(b).value();
  Matrix expected = ReferenceMultiply(a, b);
  for (size_t r = 0; r < c.rows(); ++r) {
    for (size_t col = 0; col < c.cols(); ++col) {
      EXPECT_DOUBLE_EQ(c.At(r, col), expected.At(r, col));
    }
  }
}

TEST(MatrixTest, GemmTransBMatchesReference) {
  // c[m x n] += a[m x k] * b[n x k]^T with b stored row-per-output.
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}}).value();       // 2x3
  Matrix bt = Matrix::FromRows({{7, 9, 11}, {8, 10, 12}}).value();   // 2x3
  Matrix expected = ReferenceMultiply(a, bt.Transposed());           // 2x2
  std::vector<double> c(4, 0.0);
  GemmTransB(a.data(), 2, 3, bt.data(), 2, c.data());
  EXPECT_DOUBLE_EQ(c[0], expected.At(0, 0));
  EXPECT_DOUBLE_EQ(c[1], expected.At(0, 1));
  EXPECT_DOUBLE_EQ(c[2], expected.At(1, 0));
  EXPECT_DOUBLE_EQ(c[3], expected.At(1, 1));
}

TEST(MatrixTest, GemmTransBAccumulatesIntoInitializedOutput) {
  // Pre-filling c with biases must yield bias + sum, the MLP pre-activation.
  double a[2] = {2, 3};
  double b[2] = {10, 100};  // one output, k = 2
  double c[1] = {0.5};
  GemmTransB(a, 1, 2, b, 1, c);
  EXPECT_DOUBLE_EQ(c[0], 0.5 + 2 * 10 + 3 * 100);
}

TEST(MatrixTest, SolveRecoversSolution) {
  Matrix a = Matrix::FromRows({{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}).value();
  auto x = a.Solve({8, -11, -3}).value();
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
  EXPECT_NEAR(x[2], -1.0, 1e-9);
}

TEST(MatrixTest, SolveSingularFails) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 4}}).value();
  EXPECT_FALSE(a.Solve({1, 2}).ok());
}

TEST(MatrixTest, SolveNeedsPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a = Matrix::FromRows({{0, 1}, {1, 0}}).value();
  auto x = a.Solve({3, 4}).value();
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DatasetTest, ValidateCatchesRaggedAndMismatch) {
  Dataset d;
  d.Add({1, 2}, 3);
  EXPECT_TRUE(d.Validate().ok());
  d.x.push_back({1});
  EXPECT_FALSE(d.Validate().ok());
  d.x.pop_back();
  d.y.push_back(1);
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, SplitPartitionsAllRows) {
  Dataset d;
  for (int i = 0; i < 100; ++i) d.Add({double(i)}, i);
  Rng rng(1);
  auto split = Split(d, 0.7, &rng).value();
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.test.size(), 30u);
  // Every original row appears exactly once.
  std::vector<int> seen(100, 0);
  for (const auto& row : split.train.x) seen[int(row[0])]++;
  for (const auto& row : split.test.x) seen[int(row[0])]++;
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(DatasetTest, SplitRejectsBadFraction) {
  Dataset d;
  d.Add({1}, 1);
  d.Add({2}, 2);
  Rng rng(1);
  EXPECT_FALSE(Split(d, 0.0, &rng).ok());
  EXPECT_FALSE(Split(d, 1.0, &rng).ok());
}

TEST(ScalerTest, MapsToUnitInterval) {
  auto s = MinMaxScaler::Fit({{0, 10}, {100, 20}}).value();
  auto t = s.Transform({50, 15}).value();
  EXPECT_DOUBLE_EQ(t[0], 0.5);
  EXPECT_DOUBLE_EQ(t[1], 0.5);
}

TEST(ScalerTest, DoesNotClampOutOfRange) {
  auto s = MinMaxScaler::Fit({{0.0}, {10.0}}).value();
  EXPECT_DOUBLE_EQ(s.Transform({20.0}).value()[0], 2.0);
  EXPECT_DOUBLE_EQ(s.Transform({-10.0}).value()[0], -1.0);
}

TEST(ScalerTest, ConstantFeatureIsSafe) {
  auto s = MinMaxScaler::Fit({{5.0}, {5.0}}).value();
  EXPECT_DOUBLE_EQ(s.Transform({5.0}).value()[0], 0.0);
}

TEST(ScalerTest, ExtendWidensRange) {
  auto s = MinMaxScaler::Fit({{0.0}, {10.0}}).value();
  ASSERT_TRUE(s.Extend({20.0}).ok());
  EXPECT_DOUBLE_EQ(s.Transform({20.0}).value()[0], 1.0);
}

TEST(ScalerTest, SaveLoadRoundTrip) {
  auto s = MinMaxScaler::Fit({{0, -5}, {10, 5}}).value();
  Properties props;
  s.Save("x_", &props);
  auto s2 = MinMaxScaler::Load("x_", props).value();
  EXPECT_EQ(s2.mins(), s.mins());
  EXPECT_EQ(s2.maxs(), s.maxs());
}

TEST(TargetScalerTest, RoundTripInverse) {
  auto s = TargetScaler::Fit({10, 110}).value();
  EXPECT_DOUBLE_EQ(s.Transform(60), 0.5);
  EXPECT_DOUBLE_EQ(s.Inverse(s.Transform(42.0)), 42.0);
}

TEST(LinearRegressionTest, RecoversExactCoefficients) {
  Dataset d;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    double x1 = rng.Uniform(0, 10), x2 = rng.Uniform(-5, 5);
    d.Add({x1, x2}, 2.0 * x1 - 3.0 * x2 + 7.0);
  }
  auto lr = LinearRegression::Fit(d).value();
  EXPECT_NEAR(lr.weights()[0], 2.0, 1e-9);
  EXPECT_NEAR(lr.weights()[1], -3.0, 1e-9);
  EXPECT_NEAR(lr.intercept(), 7.0, 1e-9);
  EXPECT_NEAR(lr.Predict({1.0, 1.0}).value(), 6.0, 1e-9);
}

TEST(LinearRegressionTest, Fit1DAndExtrapolate) {
  auto lr = LinearRegression::Fit1D({1, 2, 3, 4}, {3, 5, 7, 9}).value();
  // y = 2x + 1 extrapolates linearly — the key property the sub-op and
  // remedy paths rely on.
  EXPECT_NEAR(lr.Predict1D(100.0).value(), 201.0, 1e-9);
}

TEST(LinearRegressionTest, RejectsUnderdeterminedFit) {
  Dataset d;
  d.Add({1, 2}, 3);
  d.Add({4, 5}, 6);
  EXPECT_FALSE(LinearRegression::Fit(d).ok());  // needs >= 3 rows for 2 dims
}

TEST(LinearRegressionTest, RidgeHandlesCollinearity) {
  Dataset d;
  for (int i = 0; i < 10; ++i) {
    double x = i;
    d.Add({x, 2 * x}, 3 * x);  // perfectly collinear features
  }
  EXPECT_FALSE(LinearRegression::Fit(d, 0.0).ok());
  auto lr = LinearRegression::Fit(d, 1e-6).value();
  EXPECT_NEAR(lr.Predict({5, 10}).value(), 15.0, 1e-3);
}

TEST(LinearRegressionTest, SaveLoadRoundTrip) {
  auto lr = LinearRegression::Fit1D({0, 1, 2}, {1, 3, 5}).value();
  Properties props;
  lr.Save("m_", &props);
  auto lr2 = LinearRegression::Load("m_", props).value();
  EXPECT_DOUBLE_EQ(lr2.Predict1D(10).value(), lr.Predict1D(10).value());
}

TEST(LinearRegressionTest, Predict1DBitIdenticalToPredict) {
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      lines = {{{1, 2, 3, 4}, {3, 5, 7, 9}},
               {{0.5, 40, 250, 1000}, {1e-7, 3.3e-6, 2.1e-5, 8.9e-5}},
               {{-3, 0.1, 7.25}, {11, -0.4, 1e9}}};
  const double inputs[] = {0.0, -1.5, 0.1, 40, 250, 1000, 1e12, 3.0e-300};
  for (const auto& [xs, ys] : lines) {
    auto lr = LinearRegression::Fit1D(xs, ys).value();
    for (double x : inputs) {
      const double fast = lr.Predict1D(x).value();
      const double ref = lr.Predict({x}).value();
      EXPECT_EQ(std::memcmp(&fast, &ref, sizeof(double)), 0) << x;
    }
  }
  Dataset d;
  for (int i = 0; i < 6; ++i) d.Add({1.0 * i, 0.5 * i * i}, 2.0 * i);
  auto two = LinearRegression::Fit(d).value();
  EXPECT_EQ(two.Predict1D(1.0).status().code(), StatusCode::kInvalidArgument);
}

Dataset NonlinearSurface(int n, uint64_t seed) {
  Dataset d;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double x1 = rng.Uniform(0, 1), x2 = rng.Uniform(0, 1);
    d.Add({x1, x2}, 5.0 * x1 * x2 + 2.0 * x1 + 1.0);
  }
  return d;
}

TEST(MlpTest, LearnsNonlinearFunction) {
  Dataset d = NonlinearSurface(400, 11);
  MlpConfig cfg;
  cfg.iterations = 6000;
  auto mlp = MlpRegressor::Train(d, cfg).value();
  Dataset test = NonlinearSurface(100, 99);
  std::vector<double> preds;
  for (const auto& row : test.x) preds.push_back(mlp.Predict(row).value());
  EXPECT_GT(RSquared(test.y, preds).value(), 0.97);
}

TEST(MlpTest, BeatsLinearRegressionOnMultiplicativeTarget) {
  Dataset d = NonlinearSurface(400, 12);
  MlpConfig cfg;
  cfg.iterations = 6000;
  auto mlp = MlpRegressor::Train(d, cfg).value();
  auto lr = LinearRegression::Fit(d).value();
  Dataset test = NonlinearSurface(200, 55);
  std::vector<double> mp, lp;
  for (const auto& row : test.x) {
    mp.push_back(mlp.Predict(row).value());
    lp.push_back(lr.Predict(row).value());
  }
  EXPECT_LT(Rmse(test.y, mp).value(), Rmse(test.y, lp).value());
}

TEST(MlpTest, ConvergenceHistoryIsRecordedAndDecreases) {
  Dataset d = NonlinearSurface(300, 13);
  MlpConfig cfg;
  cfg.iterations = 4000;
  cfg.eval_every = 500;
  auto mlp = MlpRegressor::Train(d, cfg).value();
  const auto& h = mlp.history();
  ASSERT_GE(h.size(), 8u);
  EXPECT_EQ(h.front().iteration, 500);
  // Error late in training is below the early error.
  EXPECT_LT(h.back().rmse_percent, h.front().rmse_percent);
}

TEST(MlpTest, DeterministicGivenSeed) {
  Dataset d = NonlinearSurface(100, 14);
  MlpConfig cfg;
  cfg.iterations = 500;
  auto a = MlpRegressor::Train(d, cfg).value();
  auto b = MlpRegressor::Train(d, cfg).value();
  EXPECT_DOUBLE_EQ(a.Predict({0.3, 0.7}).value(),
                   b.Predict({0.3, 0.7}).value());
}

TEST(MlpTest, PredictBatchBitIdenticalToPredict) {
  // The GEMM-lowered batch path (DESIGN.md §14) must reproduce the scalar
  // forward pass bit for bit — byte-compared, not approximately — across
  // topologies and batch sizes, including rows far outside the training
  // range (the saturation/extrapolation branch).
  const std::vector<std::pair<int, int>> topologies = {
      {10, 5}, {14, 7}, {32, 16}, {3, 2}};
  uint64_t seed = 31;
  for (const auto& [h1, h2] : topologies) {
    Dataset d = NonlinearSurface(120, seed++);
    MlpConfig cfg;
    cfg.hidden1 = h1;
    cfg.hidden2 = h2;
    cfg.iterations = 300;
    auto mlp = MlpRegressor::Train(d, cfg).value();
    Rng rng(seed++);
    for (size_t batch : {size_t{1}, size_t{2}, size_t{7}, size_t{64}}) {
      std::vector<std::vector<double>> rows;
      rows.reserve(batch);
      for (size_t i = 0; i < batch; ++i) {
        // Mix in-range and far out-of-range inputs.
        rows.push_back({rng.Uniform(-2, 3), rng.Uniform(-2, 3)});
      }
      std::vector<double> batched;
      ASSERT_TRUE(mlp.PredictBatch(rows, &batched).ok());
      ASSERT_EQ(batched.size(), batch);
      for (size_t i = 0; i < batch; ++i) {
        const double scalar = mlp.Predict(rows[i]).value();
        // Byte compare: even a last-ulp reassociation difference fails.
        EXPECT_EQ(std::memcmp(&batched[i], &scalar, sizeof(double)), 0)
            << "topology (" << h1 << ", " << h2 << ") batch " << batch
            << " row " << i << ": " << batched[i] << " vs " << scalar;
      }
    }
  }
}

TEST(MlpTest, PredictBatchRejectsRaggedRows) {
  Dataset d = NonlinearSurface(60, 21);
  MlpConfig cfg;
  cfg.iterations = 100;
  auto mlp = MlpRegressor::Train(d, cfg).value();
  std::vector<double> out;
  EXPECT_FALSE(mlp.PredictBatch({{0.1, 0.2}, {0.3}}, &out).ok());
  EXPECT_TRUE(mlp.PredictBatch({}, &out).ok());  // empty batch is a no-op
  EXPECT_TRUE(out.empty());
}

TEST(MlpTest, SaturatesOutOfRange) {
  // tanh hidden units cannot extrapolate a linear trend — the motivation
  // for the paper's online remedy phase.
  Dataset d;
  for (int i = 0; i <= 100; ++i) d.Add({double(i)}, 2.0 * i);
  MlpConfig cfg;
  cfg.iterations = 4000;
  auto mlp = MlpRegressor::Train(d, cfg).value();
  double at_1000 = mlp.Predict({1000.0}).value();
  // The true value would be 2000; the saturated network lands far below.
  EXPECT_LT(at_1000, 0.6 * 2000.0);
}

TEST(MlpTest, ContinueTrainingAbsorbsNewRange) {
  Dataset d;
  for (int i = 0; i <= 50; ++i) d.Add({double(i)}, 3.0 * i);
  MlpConfig cfg;
  cfg.iterations = 3000;
  auto mlp = MlpRegressor::Train(d, cfg).value();
  double before = std::abs(mlp.Predict({100.0}).value() - 300.0);
  Dataset extra;
  for (int i = 80; i <= 120; i += 5) extra.Add({double(i)}, 3.0 * i);
  ASSERT_TRUE(mlp.ContinueTraining(extra, 4000).ok());
  double after = std::abs(mlp.Predict({100.0}).value() - 300.0);
  EXPECT_LT(after, before);
  EXPECT_EQ(mlp.training_rows(), d.size() + extra.size());
}

TEST(MlpTest, SaveLoadPreservesPredictions) {
  Dataset d = NonlinearSurface(200, 15);
  MlpConfig cfg;
  cfg.iterations = 1000;
  auto mlp = MlpRegressor::Train(d, cfg).value();
  Properties props;
  mlp.Save("nn_", &props);
  auto loaded = MlpRegressor::Load("nn_", props).value();
  for (double x : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(loaded.Predict({x, x}).value(),
                     mlp.Predict({x, x}).value());
  }
}

TEST(MlpTest, LoadedModelRefusesRetraining) {
  Dataset d = NonlinearSurface(50, 16);
  MlpConfig cfg;
  cfg.iterations = 200;
  auto mlp = MlpRegressor::Train(d, cfg).value();
  Properties props;
  mlp.Save("nn_", &props);
  auto loaded = MlpRegressor::Load("nn_", props).value();
  Dataset extra;
  EXPECT_EQ(loaded.ContinueTraining(extra, 100).code(),
            StatusCode::kFailedPrecondition);
}

TEST(MlpTest, RejectsBadConfig) {
  Dataset d = NonlinearSurface(50, 17);
  MlpConfig cfg;
  cfg.hidden1 = 0;
  EXPECT_FALSE(MlpRegressor::Train(d, cfg).ok());
  cfg = MlpConfig{};
  cfg.iterations = 0;
  EXPECT_FALSE(MlpRegressor::Train(d, cfg).ok());
  Dataset tiny;
  tiny.Add({1.0}, 1.0);
  EXPECT_FALSE(MlpRegressor::Train(tiny, MlpConfig{}).ok());
}

TEST(CrossValidationTest, SweepsThePaperGrid) {
  Dataset d = NonlinearSurface(200, 18);
  TopologySearchOptions opts;
  opts.search_iterations = 300;
  opts.layer1_step = 1;
  auto result = SearchTopology(d, opts).value();
  // d = 2 features: layer1 in [2, 4], layer2 in [3, max(3, layer1/2)] = {3}.
  EXPECT_EQ(result.scores.size(), 3u);
  for (const auto& s : result.scores) {
    EXPECT_GE(s.hidden1, 2);
    EXPECT_LE(s.hidden1, 4);
    EXPECT_EQ(s.hidden2, 3);
  }
  // The winner is the least-RMSE candidate.
  for (const auto& s : result.scores) {
    EXPECT_LE(result.best_rmse, s.rmse);
  }
}

class MlpTopologyParamTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MlpTopologyParamTest, AllSmallTopologiesTrain) {
  auto [h1, h2] = GetParam();
  Dataset d = NonlinearSurface(150, 19);
  MlpConfig cfg;
  cfg.hidden1 = h1;
  cfg.hidden2 = h2;
  cfg.iterations = 3500;
  auto mlp = MlpRegressor::Train(d, cfg).value();
  std::vector<double> preds;
  for (const auto& row : d.x) preds.push_back(mlp.Predict(row).value());
  EXPECT_GT(RSquared(d.y, preds).value(), 0.8)
      << "topology " << h1 << "x" << h2;
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MlpTopologyParamTest,
    ::testing::Values(std::pair{2, 3}, std::pair{4, 3}, std::pair{7, 3},
                      std::pair{10, 5}, std::pair{14, 7}));

}  // namespace
}  // namespace intellisphere::ml
