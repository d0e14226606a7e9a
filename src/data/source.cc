#include "data/source.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "data/io.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace mcirbm::data {

Status DataSource::GatherRows(const std::vector<std::size_t>& /*indices*/,
                              linalg::Matrix* /*x*/,
                              std::vector<int>* /*labels*/) const {
  return Status::InvalidArgument(
      "data source '" + name() +
      "' is sequential and does not support random row access; convert it "
      "to the binary format with `mcirbm_cli dataset convert`");
}

StatusOr<Dataset> DataSource::Materialize() {
  Dataset out;
  out.name = name();
  out.num_classes = num_classes();
  out.x.Resize(rows(), cols());
  out.labels.resize(rows());
  const Status status = ForEachChunk([&out](const ChunkSpec& chunk) {
    std::memcpy(out.x.data() + chunk.row_begin * chunk.cols, chunk.x,
                chunk.rows * chunk.cols * sizeof(double));
    std::copy(chunk.labels, chunk.labels + chunk.rows,
              out.labels.begin() + chunk.row_begin);
    return Status::Ok();
  });
  if (!status.ok()) return status;
  const Status valid = out.Validate();
  if (!valid.ok()) return valid;
  return out;
}

namespace {

class InMemorySource final : public DataSource {
 public:
  InMemorySource(Dataset dataset, const DataSourceConfig& config)
      : dataset_(std::move(dataset)), config_(config) {}

  const std::string& name() const override { return dataset_.name; }
  std::size_t rows() const override { return dataset_.num_instances(); }
  std::size_t cols() const override { return dataset_.num_features(); }
  int num_classes() const override { return dataset_.num_classes; }
  bool SupportsRandomAccess() const override { return true; }
  const Dataset* DenseView() const override { return &dataset_; }

  Status ForEachChunk(
      const std::function<Status(const ChunkSpec&)>& fn) override {
    const std::size_t n = rows();
    const std::size_t step =
        config_.max_resident_rows > 0 ? config_.max_resident_rows : n;
    for (std::size_t begin = 0; begin < n; begin += step) {
      ChunkSpec chunk;
      chunk.row_begin = begin;
      chunk.rows = std::min(step, n - begin);
      chunk.cols = cols();
      chunk.x = dataset_.x.data() + begin * chunk.cols;
      chunk.labels = dataset_.labels.data() + begin;
      const Status status = fn(chunk);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  Status GatherRows(const std::vector<std::size_t>& indices,
                    linalg::Matrix* x,
                    std::vector<int>* labels) const override {
    const std::size_t d = cols();
    x->Resize(indices.size(), d);
    if (labels != nullptr) labels->resize(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const std::size_t r = indices[i];
      if (r >= rows()) {
        return Status::InvalidArgument("gather index " + std::to_string(r) +
                                       " out of range for " +
                                       std::to_string(rows()) + " rows");
      }
      std::memcpy(x->data() + i * d, dataset_.x.data() + r * d,
                  d * sizeof(double));
      if (labels != nullptr) (*labels)[i] = dataset_.labels[r];
    }
    return Status::Ok();
  }

 private:
  const Dataset dataset_;
  const DataSourceConfig config_;
};

class CsvSource final : public DataSource {
 public:
  CsvSource(std::string path, std::string name,
            const DataSourceConfig& config)
      : path_(std::move(path)), name_(std::move(name)), config_(config) {}

  /// One streaming pass: establishes rows/cols/num_classes and rejects
  /// malformed content up front so iteration never surprises consumers.
  Status Open() {
    LabeledCsvRows checked(path_);
    rows_ = 0;
    const Status status = ScanCsv(
        path_, /*has_header=*/true, nullptr,
        [&](std::size_t lineno, const std::vector<double>& row) {
          auto label = checked.Check(lineno, row);
          if (!label.ok()) return label.status();
          ++rows_;
          return Status::Ok();
        });
    if (!status.ok()) return status;
    if (rows_ == 0) return Status::ParseError(path_ + ": no data rows");
    cols_ = checked.cols();
    num_classes_ = checked.num_classes();
    return Status::Ok();
  }

  const std::string& name() const override { return name_; }
  std::size_t rows() const override { return rows_; }
  std::size_t cols() const override { return cols_; }
  int num_classes() const override { return num_classes_; }
  bool SupportsRandomAccess() const override { return false; }

  /// Re-streams the file, checking every row again. A file that no longer
  /// has the shape Open saw (a row of another width, more rows, fewer
  /// rows, or a label past num_classes()) fails with kParseError rather
  /// than overrun the chunk buffer or come back padded.
  Status ForEachChunk(
      const std::function<Status(const ChunkSpec&)>& fn) override {
    const std::size_t step =
        config_.max_resident_rows > 0 ? config_.max_resident_rows : rows_;
    buf_x_.Resize(step, cols_);
    buf_labels_.resize(step);
    std::size_t filled = 0;
    std::size_t emitted = 0;
    std::size_t last_line = 0;
    const auto emit = [&]() -> Status {
      ChunkSpec chunk;
      chunk.row_begin = emitted;
      chunk.rows = filled;
      chunk.cols = cols_;
      chunk.x = buf_x_.data();
      chunk.labels = buf_labels_.data();
      emitted += filled;
      filled = 0;
      return fn(chunk);
    };
    const auto changed = [this](std::size_t lineno) {
      return Status::ParseError(path_ + ":" + std::to_string(lineno) +
                                ": file changed since it was opened");
    };
    LabeledCsvRows checked(path_);
    const Status status = ScanCsv(
        path_, /*has_header=*/true, nullptr,
        [&](std::size_t lineno, const std::vector<double>& row) {
          last_line = lineno;
          if (row.size() != cols_ + 1 || emitted + filled == rows_) {
            return changed(lineno);
          }
          auto label = checked.Check(lineno, row);
          if (!label.ok()) return label.status();
          if (label.value() >= num_classes_) return changed(lineno);
          std::memcpy(buf_x_.data() + filled * cols_, row.data(),
                      cols_ * sizeof(double));
          buf_labels_[filled] = label.value();
          if (++filled == step) return emit();
          return Status::Ok();
        });
    if (!status.ok()) return status;
    if (emitted + filled != rows_) return changed(last_line + 1);
    if (filled > 0) return emit();
    return Status::Ok();
  }

 private:
  const std::string path_;
  const std::string name_;
  const DataSourceConfig config_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  int num_classes_ = 0;
  linalg::Matrix buf_x_;
  std::vector<int> buf_labels_;
};

}  // namespace

StatusOr<std::unique_ptr<DataSource>> MakeInMemorySource(
    Dataset dataset, const DataSourceConfig& config) {
  const Status valid = dataset.Validate();
  if (!valid.ok()) return valid;
  return std::unique_ptr<DataSource>(
      new InMemorySource(std::move(dataset), config));
}

StatusOr<std::unique_ptr<DataSource>> OpenCsvSource(
    const std::string& path, const std::string& name,
    const DataSourceConfig& config) {
  auto source = std::make_unique<CsvSource>(path, name, config);
  const Status status = source->Open();
  if (!status.ok()) return status;
  return std::unique_ptr<DataSource>(std::move(source));
}

StatusOr<Dataset> LoadDatasetLibsvm(const std::string& path,
                                    const std::string& name) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);

  struct SparseRow {
    double label = 0;
    std::vector<std::pair<std::size_t, double>> features;  ///< 0-based
  };
  std::vector<SparseRow> sparse;
  std::size_t max_index = 0;  // 1-based maximum seen
  std::map<double, int> label_ids;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    SparseRow row;
    bool saw_label = false;
    for (const std::string& raw_token : Split(trimmed, ' ')) {
      const std::string token = Trim(raw_token);
      if (token.empty()) continue;
      if (!saw_label) {
        if (!ParseDouble(token, &row.label) ||
            !std::isfinite(row.label)) {
          return Status::ParseError(path + ":" + std::to_string(lineno) +
                                    ": non-numeric label '" + token + "'");
        }
        saw_label = true;
        continue;
      }
      const std::size_t colon = token.find(':');
      if (colon == std::string::npos) {
        return Status::ParseError(path + ":" + std::to_string(lineno) +
                                  ": expected index:value, got '" + token +
                                  "'");
      }
      int index = 0;
      double value = 0;
      if (!ParseInt(token.substr(0, colon), &index) || index < 1) {
        return Status::ParseError(path + ":" + std::to_string(lineno) +
                                  ": feature index must be a positive "
                                  "integer in '" + token + "'");
      }
      if (!ParseDouble(token.substr(colon + 1), &value) ||
          !std::isfinite(value)) {
        return Status::ParseError(path + ":" + std::to_string(lineno) +
                                  ": non-finite feature value in '" + token +
                                  "'");
      }
      max_index = std::max(max_index, static_cast<std::size_t>(index));
      row.features.emplace_back(static_cast<std::size_t>(index) - 1, value);
    }
    if (!saw_label) continue;  // whitespace-only line
    label_ids.emplace(row.label, 0);
    sparse.push_back(std::move(row));
  }
  if (sparse.empty()) return Status::ParseError(path + ": no data rows");
  if (max_index == 0) {
    return Status::ParseError(path + ": no feature entries in any row");
  }

  // Distinct labels, ascending -> 0..C-1 (maps -1/+1 to 0/1).
  int next_id = 0;
  for (auto& [value, id] : label_ids) id = next_id++;

  Dataset out;
  out.name = name;
  out.num_classes = next_id;
  out.x.Resize(sparse.size(), max_index);
  out.labels.resize(sparse.size());
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    out.labels[i] = label_ids.at(sparse[i].label);
    for (const auto& [j, value] : sparse[i].features) {
      out.x(i, j) = value;
    }
  }
  const Status valid = out.Validate();
  if (!valid.ok()) return valid;
  return out;
}

}  // namespace mcirbm::data
