#ifndef NOMAD_EVAL_METRICS_H_
#define NOMAD_EVAL_METRICS_H_

#include "data/sparse_matrix.h"
#include "linalg/factor_matrix.h"

namespace nomad {

class ThreadPool;

/// Root-mean-square error of the model W Hᵀ on the given ratings
/// (paper Sec. 5.1). Returns 0 for an empty rating set.
///
/// Every metric exists for both factor storage precisions; the error and
/// norm sums always accumulate in double (a float sum over millions of
/// test ratings would drop the small terms), so an f32 run's trace is
/// directly comparable to an f64 run's.
///
/// When `pool` is non-null the error sum is computed across the pool's
/// threads (one contiguous row range per thread, partials reduced in shard
/// order — deterministic for a fixed pool size). The NOMAD driver uses this
/// so evaluation pauses no longer serialize a full test-set pass on large
/// sets.
double Rmse(const SparseMatrix& ratings, const FactorMatrix& w,
            const FactorMatrix& h, ThreadPool* pool = nullptr);
double Rmse(const SparseMatrix& ratings, const FactorMatrixF& w,
            const FactorMatrixF& h, ThreadPool* pool = nullptr);

/// The regularized objective J(W, H) of Eq. (1):
///   1/2 Σ (A_ij − ⟨w_i,h_j⟩)² + λ/2 (Σ_i |Ω_i|‖w_i‖² + Σ_j |Ω̄_j|‖h_j‖²).
double Objective(const SparseMatrix& train, const FactorMatrix& w,
                 const FactorMatrix& h, double lambda,
                 ThreadPool* pool = nullptr);
double Objective(const SparseMatrix& train, const FactorMatrixF& w,
                 const FactorMatrixF& h, double lambda,
                 ThreadPool* pool = nullptr);

/// Sum of squared errors only (the loss term of the objective, unhalved).
double SquaredError(const SparseMatrix& ratings, const FactorMatrix& w,
                    const FactorMatrix& h, ThreadPool* pool = nullptr);
double SquaredError(const SparseMatrix& ratings, const FactorMatrixF& w,
                    const FactorMatrixF& h, ThreadPool* pool = nullptr);

/// SquaredError over the rows [row_begin, row_end) only: the share of a
/// rank of the distributed driver, which evaluates the users it owns. Over
/// a split of [0, rows()) the shares add up to SquaredError (up to
/// summation order); the full range is SquaredError, bit for bit.
double SquaredError(const SparseMatrix& ratings, const FactorMatrix& w,
                    const FactorMatrix& h, int32_t row_begin,
                    int32_t row_end, ThreadPool* pool = nullptr);
double SquaredError(const SparseMatrix& ratings, const FactorMatrixF& w,
                    const FactorMatrixF& h, int32_t row_begin,
                    int32_t row_end, ThreadPool* pool = nullptr);

}  // namespace nomad

#endif  // NOMAD_EVAL_METRICS_H_
