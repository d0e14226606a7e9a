// Dataset CSV persistence: features plus a trailing integer label column.
#ifndef MCIRBM_DATA_IO_H_
#define MCIRBM_DATA_IO_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace mcirbm::data {

/// Writes `dataset` as CSV: header "f0,...,f<d-1>,label", one row per
/// instance, label as the last column.
Status SaveDatasetCsv(const Dataset& dataset, const std::string& path);

/// Reads a dataset previously written by SaveDatasetCsv (or any CSV whose
/// last column is an integer class label) in one pass over the file.
/// `name` is attached to the result. Every row is checked by
/// LabeledCsvRows, so a bad row fails with kParseError naming `path:line`.
StatusOr<Dataset> LoadDatasetCsv(const std::string& path,
                                 const std::string& name);

/// The row check of the SaveDatasetCsv layout, shared by LoadDatasetCsv
/// and the streaming CSV source (OpenCsvSource): at least one feature
/// column plus a trailing label column, every feature finite, and the label
/// a non-negative integer (within 1e-9). Rows come from ScanCsv, which has
/// already checked that they all have the same width.
class LabeledCsvRows {
 public:
  explicit LabeledCsvRows(std::string path) : path_(std::move(path)) {}

  /// Checks the row read from line `lineno` and returns its label. The
  /// first row fixes cols().
  StatusOr<int> Check(std::size_t lineno, const std::vector<double>& row);

  /// Feature columns (the row width less the label); 0 before any row.
  std::size_t cols() const { return cols_; }
  /// One more than the largest label checked so far.
  int num_classes() const { return max_label_ + 1; }

 private:
  std::string path_;
  std::size_t cols_ = 0;
  int max_label_ = 0;
};

}  // namespace mcirbm::data

#endif  // MCIRBM_DATA_IO_H_
