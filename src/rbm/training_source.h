// Row-gather abstraction the CD training loop pulls minibatches through.
//
// The trainer only ever needs two things from its data: the shape, and
// "give me these rows as a dense matrix" (the epoch shuffle selects the
// rows; gathering them is RNG-free). Abstracting that pair lets the same
// loop train from a fully resident matrix or stream batches from an
// out-of-core backing store (data::DataSource adapters live in the api
// layer) with bit-identical results: identical gathered batches in
// identical order reproduce every downstream draw and update exactly.
#ifndef MCIRBM_RBM_TRAINING_SOURCE_H_
#define MCIRBM_RBM_TRAINING_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "util/check.h"
#include "util/status.h"

namespace mcirbm::rbm {

/// Random-access row provider for RbmBase::TrainFromSource.
class TrainingDataSource {
 public:
  virtual ~TrainingDataSource() = default;

  virtual std::size_t rows() const = 0;
  virtual std::size_t cols() const = 0;

  /// Gathers the given rows, in order, into `out` (resized to
  /// indices.size() x cols()). Must be safe to call from the trainer's
  /// background prefetch thread (no shared mutable state with other
  /// GatherRows calls in flight — the trainer issues at most one at a
  /// time, but concurrently with parallel compute regions).
  virtual Status GatherRows(const std::vector<std::size_t>& indices,
                            linalg::Matrix* out) const = 0;

  /// The full matrix when it is memory-resident, nullptr otherwise.
  /// Enables the features that genuinely need all rows at once (PCA
  /// weight init); everything else streams through GatherRows.
  virtual const linalg::Matrix* DenseView() const { return nullptr; }
};

/// Zero-copy adapter over an in-memory matrix, so Train(matrix) and
/// TrainFromSource(MatrixTrainingSource(matrix)) are the same computation.
class MatrixTrainingSource final : public TrainingDataSource {
 public:
  explicit MatrixTrainingSource(const linalg::Matrix& x) : x_(x) {}

  std::size_t rows() const override { return x_.rows(); }
  std::size_t cols() const override { return x_.cols(); }

  Status GatherRows(const std::vector<std::size_t>& indices,
                    linalg::Matrix* out) const override {
    for (std::size_t i : indices) {
      if (i >= x_.rows()) {
        return Status::InvalidArgument("gather index " + std::to_string(i) +
                                       " out of range");
      }
    }
    // Into *out's own storage, which a trainer refilling one batch buffer
    // keeps from batch to batch.
    const std::size_t d = x_.cols();
    out->Resize(indices.size(), d);
    for (std::size_t r = 0; r < indices.size(); ++r) {
      std::copy_n(x_.data() + indices[r] * d, d, out->data() + r * d);
    }
    return Status::Ok();
  }

  const linalg::Matrix* DenseView() const override { return &x_; }

 private:
  const linalg::Matrix& x_;
};

}  // namespace mcirbm::rbm

#endif  // MCIRBM_RBM_TRAINING_SOURCE_H_
