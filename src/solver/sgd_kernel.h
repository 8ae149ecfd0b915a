#ifndef NOMAD_SOLVER_SGD_KERNEL_H_
#define NOMAD_SOLVER_SGD_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/shard.h"
#include "linalg/dense_ops.h"
#include "linalg/factor_matrix.h"
#include "sched/schedule.h"
#include "solver/loss.h"

namespace nomad {

/// Per-rating update counters backing Eq. (11)'s t, keyed by the rating's
/// global CSC position. Each (i, j) is only ever updated by the worker that
/// owns user i, so plain (non-atomic) counters are race-free under NOMAD's
/// ownership discipline; the same holds for DSGD-style strata.
class StepCounts {
 public:
  explicit StepCounts(int64_t nnz)
      : counts_(static_cast<size_t>(nnz), 0) {}

  /// Returns the current count for the rating at CSC position `pos` and
  /// advances it.
  uint32_t NextCount(int64_t pos) {
    return counts_[static_cast<size_t>(pos)]++;
  }

  uint32_t CountAt(int64_t pos) const {
    return counts_[static_cast<size_t>(pos)];
  }

  int64_t TotalUpdates() const;

 private:
  std::vector<uint32_t> counts_;
};

/// How many ratings ahead a column visit requests the W row it will update.
/// A worker's W slice (~6 MB on perfbench's shm workload) is several times
/// a core's L2, so most w_i of a visit miss, while an update at k = 32 takes
/// tens of ns: a row requested a few updates early has mostly arrived when
/// its update runs. 2 to 16 all gained there; 4 keeps few rows in flight.
inline constexpr int32_t kRowPrefetchDistance = 4;

/// Bundles schedule + loss + λ into the per-rating update the SGD-family
/// solvers share (nomad, serial_sgd, hogwild, dsgd, dsgd++, fpsgd**),
/// templated on the factor-row storage precision. A null loss selects the
/// specialized squared-loss kernel (the paper's setting and the SIMD fast
/// path, see simd_ops.h); any other Loss goes through the general gradient
/// form of Sec. 2. Rating/step/λ arrive in double from the schedule and
/// are rounded once per update for float rows — the per-element arithmetic
/// then runs entirely in Real.
template <typename Real>
class UpdateKernelT {
 public:
  UpdateKernelT(const StepSchedule& schedule, const Loss* loss, double lambda,
                int k)
      : schedule_(schedule), loss_(loss), lambda_(lambda), k_(k) {}

  void Apply(double rating, StepCounts* counts, int64_t pos, Real* w,
             Real* h) const {
    ApplyWithStep(rating, schedule_.Step(counts->NextCount(pos)), w, h);
  }

  /// One column visit: Apply() to each rating of `entries[0, n)` (a
  /// worker's ratings of column j, see ColumnShards::ColEntries) and h_j,
  /// in order, each preceded by a write-intent prefetch of the W row
  /// kRowPrefetchDistance ratings ahead.
  void ApplyColumn(const ColumnShards::Entry* entries, int32_t n,
                   StepCounts* counts, FactorMatrixT<Real>* w,
                   Real* hj) const {
    // Rows are line-aligned: a row is exactly the lines these bytes span.
    const size_t row_bytes = sizeof(Real) * static_cast<size_t>(k_);
    // Step t requests the row of rating t + D (D = kRowPrefetchDistance)
    // and updates rating t, so rows [0, D) are requested before the first
    // update. The prefetch stays inline: g++ 12 drops a __builtin_prefetch
    // made inside a lambda called here.
    for (int32_t t = -kRowPrefetchDistance; t < n; ++t) {
      if (t + kRowPrefetchDistance < n) {
        const char* row = reinterpret_cast<const char*>(
            w->Row(entries[t + kRowPrefetchDistance].row));
        for (size_t b = 0; b < row_bytes; b += kCacheLineBytes) {
          __builtin_prefetch(row + b, /*rw=*/1);
        }
      }
      if (t >= 0) {
        Apply(entries[t].value, counts, entries[t].csc_pos,
              w->Row(entries[t].row), hj);
      }
    }
  }

  /// Same update with a caller-chosen step size — the bold-driver path of
  /// DSGD/DSGD++, which adapts one step per epoch instead of per rating.
  void ApplyWithStep(double rating, double step, Real* w, Real* h) const {
    if (loss_ == nullptr) {
      SgdUpdatePair(static_cast<Real>(rating), static_cast<Real>(step),
                    static_cast<Real>(lambda_), w, h, k_);
    } else {
      SgdUpdatePairLoss(*loss_, static_cast<Real>(rating),
                        static_cast<Real>(step), static_cast<Real>(lambda_),
                        w, h, k_);
    }
  }

 private:
  const StepSchedule& schedule_;
  const Loss* loss_;  // null = squared fast path
  double lambda_;
  int k_;
};

using UpdateKernel = UpdateKernelT<double>;
using UpdateKernelF = UpdateKernelT<float>;

/// Resolves TrainOptions-style loss selection: returns null (fast squared
/// path) for "squared"/"", a Loss instance otherwise, or an error status
/// for unknown names.
Result<std::unique_ptr<Loss>> ResolveLoss(const std::string& name);

}  // namespace nomad

#endif  // NOMAD_SOLVER_SGD_KERNEL_H_
