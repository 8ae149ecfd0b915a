#ifndef NOMAD_DATA_SPARSE_MATRIX_H_
#define NOMAD_DATA_SPARSE_MATRIX_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace nomad {

/// One observed rating: user `row` gave item `col` the value `value`.
struct Rating {
  int32_t row = 0;
  int32_t col = 0;
  float value = 0.0f;

  bool operator==(const Rating&) const = default;
};

/// Immutable sparse rating matrix stored in both CSR (by user) and CSC (by
/// item) layouts. CSR serves ALS/CCD++ row sweeps and per-user iteration;
/// CSC serves NOMAD's per-item token processing and column sweeps.
///
/// Built once from COO triplets via Build(); never mutated afterwards, which
/// is the paper's "data is partitioned and never moved" property (Sec. 3.1).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds both layouts from triplets. Duplicate (row, col) entries are
  /// rejected (InvalidArgument); out-of-range indices too.
  static Result<SparseMatrix> Build(int32_t rows, int32_t cols,
                                    std::vector<Rating> ratings);

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(csr_value_.size()); }

  // ---- CSR (row-major) access: Ω_i of the paper ----
  /// Number of ratings in row i.
  int32_t RowNnz(int32_t i) const {
    return static_cast<int32_t>(csr_ptr_[i + 1] - csr_ptr_[i]);
  }
  /// Column indices of row i (size RowNnz(i)).
  const int32_t* RowCols(int32_t i) const {
    return csr_col_.data() + csr_ptr_[i];
  }
  const float* RowVals(int32_t i) const {
    return csr_value_.data() + csr_ptr_[i];
  }
  /// Global CSR position of the first entry of row i, for i in
  /// [0, rows()]: rows [b, e) hold RowOffset(e) - RowOffset(b) ratings.
  int64_t RowOffset(int32_t i) const { return csr_ptr_[i]; }

  // ---- CSC (column-major) access: Ω̄_j of the paper ----
  int32_t ColNnz(int32_t j) const {
    return static_cast<int32_t>(csc_ptr_[j + 1] - csc_ptr_[j]);
  }
  const int32_t* ColRows(int32_t j) const {
    return csc_row_.data() + csc_ptr_[j];
  }
  const float* ColVals(int32_t j) const {
    return csc_value_.data() + csc_ptr_[j];
  }
  /// Global CSC position of the first entry of column j; used to key
  /// per-rating state (e.g. SGD step counts) by CSC slot.
  int64_t ColOffset(int32_t j) const { return csc_ptr_[j]; }

  /// Reconstructs the COO triplet list (row-major order). For tests and
  /// serialization.
  std::vector<Rating> ToCoo() const;

  /// Mean of all rating values (0 if empty).
  double MeanValue() const;

 private:
  int32_t rows_ = 0;
  int32_t cols_ = 0;

  std::vector<int64_t> csr_ptr_;
  std::vector<int32_t> csr_col_;
  std::vector<float> csr_value_;

  std::vector<int64_t> csc_ptr_;
  std::vector<int32_t> csc_row_;
  std::vector<float> csc_value_;
};

}  // namespace nomad

#endif  // NOMAD_DATA_SPARSE_MATRIX_H_
