// Dense row-major matrix of doubles.
//
// This is the numeric workhorse of the library (no external BLAS/Eigen is
// available offline). Storage is a single contiguous buffer; rows are the
// unit of data-parallel work (instances), columns are features/units.
#ifndef MCIRBM_LINALG_MATRIX_H_
#define MCIRBM_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace mcirbm::linalg {

/// Dense row-major matrix. Cheap to move, explicit to copy (via Clone()
/// semantics are unnecessary — copy ctor is allowed but prefer refs).
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Builds from nested initializer lists: Matrix m{{1,2},{3,4}};
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    MCIRBM_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    MCIRBM_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Mutable view of row `r` as a span of length cols().
  std::span<double> Row(std::size_t r) {
    MCIRBM_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  /// Read-only view of row `r`.
  std::span<const double> Row(std::size_t r) const {
    MCIRBM_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void Fill(double value);

  /// Resizes to rows x cols, zeroing all content. Keeps the storage (no
  /// allocation) when it already holds rows x cols elements or more.
  void Resize(std::size_t rows, std::size_t cols);

  /// Appends one row; on an empty matrix the row fixes cols(), afterwards
  /// the length must match. Amortized O(cols) — streaming loaders build
  /// matrices row by row with this.
  void AppendRow(std::span<const double> row);

  /// Returns the transposed matrix (cols x rows).
  Matrix Transposed() const;

  /// Extracts the rows listed in `indices` (in that order).
  Matrix SelectRows(const std::vector<std::size_t>& indices) const;

  /// Extracts the int-indexed rows (convenience for label-driven subsets).
  Matrix SelectRows(const std::vector<int>& indices) const;

  /// Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Element-wise (Hadamard) in-place product.
  Matrix& HadamardInPlace(const Matrix& other);

  /// this += scalar * other (AXPY over the whole buffer).
  void Axpy(double scalar, const Matrix& other);

  /// Frobenius norm sqrt(sum x^2).
  double FrobeniusNorm() const;

  /// Sum of all elements.
  double Sum() const;

  /// Max |x| over all elements.
  double MaxAbs() const;

  /// True if same shape and all |a-b| <= tol.
  bool AllClose(const Matrix& other, double tol) const;

  /// Debug rendering ("2x3 [[1, 2, 3], [4, 5, 6]]"), truncated when large.
  std::string ToString(std::size_t max_rows = 6, std::size_t max_cols = 8)
      const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// Element-wise binary operators (shape-checked).
Matrix operator+(const Matrix& a, const Matrix& b);
Matrix operator-(const Matrix& a, const Matrix& b);
Matrix operator*(const Matrix& a, double s);
Matrix operator*(double s, const Matrix& a);

}  // namespace mcirbm::linalg

#endif  // MCIRBM_LINALG_MATRIX_H_
