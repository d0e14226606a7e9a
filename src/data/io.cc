#include "data/io.h"

#include <algorithm>
#include <cmath>

#include "util/csv.h"

namespace mcirbm::data {

Status SaveDatasetCsv(const Dataset& dataset, const std::string& path) {
  const Status valid = dataset.Validate();
  if (!valid.ok()) return valid;
  std::vector<std::string> header;
  header.reserve(dataset.num_features() + 1);
  for (std::size_t j = 0; j < dataset.num_features(); ++j) {
    header.push_back("f" + std::to_string(j));
  }
  header.push_back("label");
  CsvWriter writer;
  Status status = writer.Open(path, header);
  if (!status.ok()) return status;
  std::vector<double> row(dataset.num_features() + 1);
  for (std::size_t i = 0; i < dataset.num_instances(); ++i) {
    const auto features = dataset.x.Row(i);
    std::copy(features.begin(), features.end(), row.begin());
    row.back() = static_cast<double>(dataset.labels[i]);
    status = writer.WriteRow(row);
    if (!status.ok()) return status;
  }
  return writer.Close();
}

StatusOr<int> LabeledCsvRows::Check(std::size_t lineno,
                                    const std::vector<double>& row) {
  const auto error = [&](const std::string& what) {
    return Status::ParseError(path_ + ":" + std::to_string(lineno) + ": " +
                              what);
  };
  if (cols_ == 0) {
    if (row.size() < 2) {
      return error("need >=1 feature column plus a trailing label column");
    }
    cols_ = row.size() - 1;
  }
  for (std::size_t j = 0; j < cols_; ++j) {
    if (!std::isfinite(row[j])) {
      return error("non-finite feature in column " + std::to_string(j));
    }
  }
  const double value = row[cols_];
  if (!std::isfinite(value)) return error("non-integer label");
  const int label = static_cast<int>(std::lround(value));
  if (std::fabs(value - label) > 1e-9 || label < 0) {
    return error("non-integer label");
  }
  max_label_ = std::max(max_label_, label);
  return label;
}

StatusOr<Dataset> LoadDatasetCsv(const std::string& path,
                                 const std::string& name) {
  Dataset out;
  out.name = name;
  LabeledCsvRows rows(path);
  const Status status = ScanCsv(
      path, /*has_header=*/true, nullptr,
      [&](std::size_t lineno, const std::vector<double>& row) {
        auto label = rows.Check(lineno, row);
        if (!label.ok()) return label.status();
        out.labels.push_back(label.value());
        out.x.AppendRow({row.data(), rows.cols()});
        return Status::Ok();
      });
  if (!status.ok()) return status;
  if (out.labels.empty()) {
    return Status::ParseError(path + ": no data rows");
  }
  out.num_classes = rows.num_classes();
  const Status valid = out.Validate();
  if (!valid.ok()) return valid;
  return out;
}

}  // namespace mcirbm::data
