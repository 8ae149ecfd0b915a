#include "eval/metrics.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace nomad {
namespace {

// 2x2 test fixture: W = [[1,0],[0,1]], H = [[1,0],[0,2]].
// Predictions: (0,0)=1, (0,1)=0, (1,0)=0, (1,1)=2.
struct Fixture {
  Fixture() {
    w = FactorMatrix(2, 2);
    h = FactorMatrix(2, 2);
    w.At(0, 0) = 1;
    w.At(1, 1) = 1;
    h.At(0, 0) = 1;
    h.At(1, 1) = 2;
  }
  FactorMatrix w;
  FactorMatrix h;
};

TEST(RmseTest, HandComputed) {
  Fixture f;
  // Ratings: (0,0)=2 (err 1), (1,1)=0 (err -2) -> RMSE = sqrt(5/2).
  auto m = SparseMatrix::Build(2, 2, {{0, 0, 2.0f}, {1, 1, 0.0f}}).value();
  EXPECT_NEAR(Rmse(m, f.w, f.h), std::sqrt(2.5), 1e-12);
}

TEST(RmseTest, PerfectModelIsZero) {
  Fixture f;
  auto m = SparseMatrix::Build(2, 2, {{0, 0, 1.0f}, {1, 1, 2.0f}}).value();
  EXPECT_DOUBLE_EQ(Rmse(m, f.w, f.h), 0.0);
}

TEST(RmseTest, EmptySetIsZero) {
  Fixture f;
  auto m = SparseMatrix::Build(2, 2, {}).value();
  EXPECT_DOUBLE_EQ(Rmse(m, f.w, f.h), 0.0);
}

TEST(SquaredErrorTest, HandComputed) {
  Fixture f;
  auto m = SparseMatrix::Build(2, 2, {{0, 1, 1.0f}}).value();
  // Prediction (0,1) = 0; err = 1.
  EXPECT_DOUBLE_EQ(SquaredError(m, f.w, f.h), 1.0);
}

// The distributed driver sums each rank's owned row ranges: over a split
// of the rows they must add up to the whole, inline and across a pool (the
// matrix is big enough for the pool to cut it).
TEST(SquaredErrorTest, RowRangesAddUpToTheWhole) {
  const int32_t rows = 500;
  const int32_t cols = 200;
  const int k = 6;
  std::vector<Rating> ratings;
  for (int32_t i = 0; i < rows; ++i) {
    for (int32_t t = 0; t < 80; ++t) {
      ratings.push_back({i, (i + 3 * t) % cols,
                         static_cast<float>((i * 7 + t * 5) % 11) * 0.5f});
    }
  }
  const SparseMatrix m = SparseMatrix::Build(rows, cols, ratings).value();
  FactorMatrix w(rows, k);
  FactorMatrix h(cols, k);
  for (int32_t i = 0; i < rows; ++i) {
    for (int d = 0; d < k; ++d) w.At(i, d) = std::sin(0.37 * i + d);
  }
  for (int32_t j = 0; j < cols; ++j) {
    for (int d = 0; d < k; ++d) h.At(j, d) = std::cos(0.23 * j - d);
  }
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const double whole = SquaredError(m, w, h, p);
    EXPECT_EQ(SquaredError(m, w, h, 0, rows, p), whole);
    const double parts = SquaredError(m, w, h, 0, 137, p) +
                         SquaredError(m, w, h, 137, 300, p) +
                         SquaredError(m, w, h, 300, 300, p) +
                         SquaredError(m, w, h, 300, rows, p);
    EXPECT_NEAR(parts, whole, 1e-9 * whole);
  }
  EXPECT_EQ(m.RowOffset(300) - m.RowOffset(137), 163 * 80);
}

TEST(ObjectiveTest, MatchesEquationOne) {
  Fixture f;
  // One rating (0,0)=2: loss = 1/2 (2-1)^2 = 0.5.
  // Weighted reg: |Ω_0|=1 for user 0 (‖w_0‖²=1), |Ω̄_0|=1 for item 0
  // (‖h_0‖²=1); users/items without ratings contribute nothing.
  // J = 0.5 + λ/2 (1 + 1) with λ = 0.1 -> 0.6.
  auto m = SparseMatrix::Build(2, 2, {{0, 0, 2.0f}}).value();
  EXPECT_NEAR(Objective(m, f.w, f.h, 0.1), 0.6, 1e-12);
}

TEST(ObjectiveTest, RegularizationScalesWithDegree) {
  Fixture f;
  // Two ratings for user 0: |Ω_0| = 2 doubles its regularizer weight.
  auto m1 = SparseMatrix::Build(2, 2, {{0, 0, 1.0f}}).value();
  auto m2 =
      SparseMatrix::Build(2, 2, {{0, 0, 1.0f}, {0, 1, 0.0f}}).value();
  // Loss is zero for both matrices under the fixture model.
  const double j1 = Objective(m1, f.w, f.h, 1.0);
  const double j2 = Objective(m2, f.w, f.h, 1.0);
  // j1 = 0 + 1/2 (1*1 + 1*1) = 1.
  EXPECT_NEAR(j1, 1.0, 1e-12);
  // j2 adds: user0 degree 2 (+0.5), item1 degree 1 with ‖h_1‖²=4 (+2).
  EXPECT_NEAR(j2, 0.5 * 2 + 0.5 * (1 + 4), 1e-12);
}

TEST(ObjectiveTest, LambdaZeroIsPureLoss) {
  Fixture f;
  auto m = SparseMatrix::Build(2, 2, {{0, 0, 3.0f}}).value();
  EXPECT_DOUBLE_EQ(Objective(m, f.w, f.h, 0.0), 0.5 * 4.0);
}

}  // namespace
}  // namespace nomad
