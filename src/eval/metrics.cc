#include "eval/metrics.h"

#include <cmath>
#include <vector>

#include "linalg/dense_ops.h"
#include "util/aligned.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace nomad {

namespace {

/// Below this many rows a parallel pass costs more in hand-off than it
/// saves; run inline.
constexpr int64_t kMinRowsForParallel = 2048;

/// Same gate for nnz-proportional work (the error sums).
constexpr int64_t kMinNnzForParallel = 16384;

/// Reduces fn(shard, begin, end) -> partial sums over [0, rows) across the
/// pool, summing partials in shard order so the result is deterministic for
/// a fixed pool size.
double ParallelSum(ThreadPool* pool, int64_t rows,
                   const std::function<double(int64_t, int64_t)>& range_sum) {
  const int shards = pool == nullptr ? 1 : pool->num_threads();
  if (shards <= 1 || rows < kMinRowsForParallel) {
    return range_sum(0, rows);
  }
  std::vector<CacheLinePadded<double>> partial(static_cast<size_t>(shards));
  ParallelForShards(pool, 0, rows, [&](int s, int64_t b, int64_t e) {
    partial[static_cast<size_t>(s)].value = range_sum(b, e);
  });
  double sum = 0.0;
  for (const auto& p : partial) sum += p.value;
  return sum;
}

/// Like ParallelSum but over rows [first, last), cut so each shard carries
/// ~equal *weight* (here: nnz), not equal row count — rating matrices have
/// power-law row degrees, and an even row split would leave one thread
/// with most of the work. Gates on total weight, so a short-but-dense
/// matrix still parallelizes. Deterministic for a fixed pool size.
double ParallelWeightedSum(
    ThreadPool* pool, int64_t first, int64_t last, int64_t total_weight,
    const std::function<int64_t(int64_t)>& weight_of,
    const std::function<double(int64_t, int64_t)>& range_sum) {
  const int shards = pool == nullptr ? 1 : pool->num_threads();
  if (shards <= 1 || total_weight < kMinNnzForParallel) {
    return range_sum(first, last);
  }
  // Prefix-walk the weights, cutting at multiples of total/shards.
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ranges.reserve(static_cast<size_t>(shards));
  int64_t begin = first;
  int64_t acc = 0;
  for (int64_t i = first;
       i < last && static_cast<int>(ranges.size()) < shards - 1; ++i) {
    acc += weight_of(i);
    if (acc * shards >=
        total_weight * static_cast<int64_t>(ranges.size() + 1)) {
      ranges.emplace_back(begin, i + 1);
      begin = i + 1;
    }
  }
  ranges.emplace_back(begin, last);
  std::vector<CacheLinePadded<double>> partial(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    pool->Submit([&, s] {
      partial[s].value = range_sum(ranges[s].first, ranges[s].second);
    });
  }
  pool->Wait();
  double sum = 0.0;
  for (const auto& p : partial) sum += p.value;
  return sum;
}

/// Shared implementation over either storage precision. The per-rating
/// prediction ⟨w_i, h_j⟩ uses the SIMD dot for the row's own element type
/// (f32 rows keep their 8-lane kernels), and every sum past that point is
/// double — so metric traces from f32 and f64 runs differ only by the f32
/// rows themselves, not by accumulation error.
template <typename Real>
double SquaredErrorT(const SparseMatrix& ratings, const FactorMatrixT<Real>& w,
                     const FactorMatrixT<Real>& h, int32_t row_begin,
                     int32_t row_end, ThreadPool* pool) {
  NOMAD_CHECK_EQ(w.cols(), h.cols());
  if (row_end <= row_begin) return 0.0;  // also a default-built matrix
  const int k = w.cols();
  const auto row_nnz = [&ratings](int64_t i) {
    return static_cast<int64_t>(ratings.RowNnz(static_cast<int32_t>(i)));
  };
  return ParallelWeightedSum(
      pool, row_begin, row_end,
      ratings.RowOffset(row_end) - ratings.RowOffset(row_begin), row_nnz,
      [&](int64_t begin, int64_t end) {
    double sum = 0.0;
    for (int64_t i = begin; i < end; ++i) {
      const int32_t row = static_cast<int32_t>(i);
      const int32_t n = ratings.RowNnz(row);
      const int32_t* cols = ratings.RowCols(row);
      const float* vals = ratings.RowVals(row);
      const Real* wi = w.Row(row);
      for (int32_t p = 0; p < n; ++p) {
        const double err = static_cast<double>(vals[p]) -
                           static_cast<double>(Dot(wi, h.Row(cols[p]), k));
        sum += err * err;
      }
    }
    return sum;
  });
}

template <typename Real>
double RmseT(const SparseMatrix& ratings, const FactorMatrixT<Real>& w,
             const FactorMatrixT<Real>& h, ThreadPool* pool) {
  if (ratings.nnz() == 0) return 0.0;
  return std::sqrt(SquaredErrorT(ratings, w, h, 0, ratings.rows(), pool) /
                   static_cast<double>(ratings.nnz()));
}

template <typename Real>
double ObjectiveT(const SparseMatrix& train, const FactorMatrixT<Real>& w,
                  const FactorMatrixT<Real>& h, double lambda,
                  ThreadPool* pool) {
  const int k = w.cols();
  double obj = 0.5 * SquaredErrorT(train, w, h, 0, train.rows(), pool);
  obj += ParallelSum(pool, train.rows(), [&](int64_t begin, int64_t end) {
    double sum = 0.0;
    for (int64_t i = begin; i < end; ++i) {
      const int32_t row = static_cast<int32_t>(i);
      sum += 0.5 * lambda * train.RowNnz(row) *
             static_cast<double>(SquaredNorm(w.Row(row), k));
    }
    return sum;
  });
  obj += ParallelSum(pool, train.cols(), [&](int64_t begin, int64_t end) {
    double sum = 0.0;
    for (int64_t j = begin; j < end; ++j) {
      const int32_t col = static_cast<int32_t>(j);
      sum += 0.5 * lambda * train.ColNnz(col) *
             static_cast<double>(SquaredNorm(h.Row(col), k));
    }
    return sum;
  });
  return obj;
}

}  // namespace

double SquaredError(const SparseMatrix& ratings, const FactorMatrix& w,
                    const FactorMatrix& h, ThreadPool* pool) {
  return SquaredErrorT<double>(ratings, w, h, 0, ratings.rows(), pool);
}

double SquaredError(const SparseMatrix& ratings, const FactorMatrixF& w,
                    const FactorMatrixF& h, ThreadPool* pool) {
  return SquaredErrorT<float>(ratings, w, h, 0, ratings.rows(), pool);
}

double SquaredError(const SparseMatrix& ratings, const FactorMatrix& w,
                    const FactorMatrix& h, int32_t row_begin, int32_t row_end,
                    ThreadPool* pool) {
  return SquaredErrorT<double>(ratings, w, h, row_begin, row_end, pool);
}

double SquaredError(const SparseMatrix& ratings, const FactorMatrixF& w,
                    const FactorMatrixF& h, int32_t row_begin,
                    int32_t row_end, ThreadPool* pool) {
  return SquaredErrorT<float>(ratings, w, h, row_begin, row_end, pool);
}

double Rmse(const SparseMatrix& ratings, const FactorMatrix& w,
            const FactorMatrix& h, ThreadPool* pool) {
  return RmseT<double>(ratings, w, h, pool);
}

double Rmse(const SparseMatrix& ratings, const FactorMatrixF& w,
            const FactorMatrixF& h, ThreadPool* pool) {
  return RmseT<float>(ratings, w, h, pool);
}

double Objective(const SparseMatrix& train, const FactorMatrix& w,
                 const FactorMatrix& h, double lambda, ThreadPool* pool) {
  return ObjectiveT<double>(train, w, h, lambda, pool);
}

double Objective(const SparseMatrix& train, const FactorMatrixF& w,
                 const FactorMatrixF& h, double lambda, ThreadPool* pool) {
  return ObjectiveT<float>(train, w, h, lambda, pool);
}

}  // namespace nomad
