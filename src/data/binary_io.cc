#include "data/binary_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

namespace mcirbm::data {

namespace {

// The on-disk layout assumes the host's native f64/i32 representation.
static_assert(std::endian::native == std::endian::little,
              "mcirbm-data v1 is a little-endian format");
static_assert(sizeof(int) == 4, "label block is i32");
static_assert(sizeof(double) == 8, "feature block is f64");

constexpr std::size_t kHeaderBytes = 24;

struct ParsedHeader {
  std::size_t rows = 0;
  std::size_t cols = 0;
  int num_classes = 0;
};

StatusOr<ParsedHeader> ParseHeader(const unsigned char* bytes,
                                   std::size_t file_size,
                                   const std::string& path) {
  if (file_size < kHeaderBytes) {
    return Status::ParseError(path + ": truncated mcirbm-data header (" +
                              std::to_string(file_size) + " bytes)");
  }
  if (std::memcmp(bytes, kBinaryDatasetMagic, 8) != 0) {
    return Status::ParseError(path + ": not a mcirbm-data v1 file (bad magic)");
  }
  std::uint32_t fields[4];
  std::memcpy(fields, bytes + 8, sizeof(fields));
  ParsedHeader header;
  header.rows = fields[0];
  header.cols = fields[1];
  if (fields[2] >
      static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
    return Status::ParseError(path + ": num_classes overflows int");
  }
  header.num_classes = static_cast<int>(fields[2]);
  if (header.rows == 0 || header.cols == 0 || header.num_classes <= 0) {
    return Status::ParseError(
        path + ": empty dataset (rows=" + std::to_string(header.rows) +
        " cols=" + std::to_string(header.cols) +
        " classes=" + std::to_string(header.num_classes) + ")");
  }
  const std::size_t per_row = header.cols * sizeof(double) + sizeof(int);
  if (header.rows > (std::numeric_limits<std::size_t>::max() -
                     kHeaderBytes) / per_row) {
    return Status::ParseError(path + ": header dimensions overflow");
  }
  const std::size_t expected = kHeaderBytes + header.rows * per_row;
  if (file_size != expected) {
    return Status::ParseError(
        path + ": file size " + std::to_string(file_size) +
        " does not match header (expected " + std::to_string(expected) +
        " bytes)");
  }
  return header;
}

class MmapSource final : public DataSource {
 public:
  MmapSource(std::string name, const DataSourceConfig& config)
      : name_(std::move(name)), config_(config) {}

  ~MmapSource() override {
    if (mapping_ != MAP_FAILED) munmap(mapping_, size_);
  }

  Status Open(const std::string& path) {
    const int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IoError("cannot open " + path);
    struct stat st;
    if (fstat(fd, &st) != 0) {
      close(fd);
      return Status::IoError("cannot stat " + path);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      mapping_ = mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    }
    close(fd);
    if (size_ == 0 || mapping_ == MAP_FAILED) {
      return Status::ParseError(path + ": empty or unmappable file");
    }
    const auto* bytes = static_cast<const unsigned char*>(mapping_);
    auto header = ParseHeader(bytes, size_, path);
    if (!header.ok()) return header.status();
    rows_ = header.value().rows;
    cols_ = header.value().cols;
    num_classes_ = header.value().num_classes;
    x_ = reinterpret_cast<const double*>(bytes + kHeaderBytes);
    labels_ = reinterpret_cast<const int*>(bytes + kHeaderBytes +
                                           rows_ * cols_ * sizeof(double));

    // One sequential validation pass (the loader contract: bad labels and
    // non-finite features are reported, never trained on silently).
    for (std::size_t i = 0; i < rows_; ++i) {
      if (labels_[i] < 0 || labels_[i] >= num_classes_) {
        return Status::ParseError(
            path + ": label " + std::to_string(labels_[i]) + " at row " +
            std::to_string(i) + " out of range [0, " +
            std::to_string(num_classes_) + ")");
      }
    }
    for (std::size_t i = 0; i < rows_ * cols_; ++i) {
      if (!std::isfinite(x_[i])) {
        return Status::ParseError(
            path + ": non-finite feature at row " +
            std::to_string(i / cols_) + ", column " +
            std::to_string(i % cols_));
      }
    }
    return Status::Ok();
  }

  const std::string& name() const override { return name_; }
  std::size_t rows() const override { return rows_; }
  std::size_t cols() const override { return cols_; }
  int num_classes() const override { return num_classes_; }
  bool SupportsRandomAccess() const override { return true; }

  Status ForEachChunk(
      const std::function<Status(const ChunkSpec&)>& fn) override {
    const std::size_t step =
        config_.max_resident_rows > 0 ? config_.max_resident_rows : rows_;
    for (std::size_t begin = 0; begin < rows_; begin += step) {
      ChunkSpec chunk;
      chunk.row_begin = begin;
      chunk.rows = std::min(step, rows_ - begin);
      chunk.cols = cols_;
      chunk.x = x_ + begin * cols_;
      chunk.labels = labels_ + begin;
      const Status status = fn(chunk);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  Status GatherRows(const std::vector<std::size_t>& indices,
                    linalg::Matrix* x,
                    std::vector<int>* labels) const override {
    x->Resize(indices.size(), cols_);
    if (labels != nullptr) labels->resize(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const std::size_t r = indices[i];
      if (r >= rows_) {
        return Status::InvalidArgument("gather index " + std::to_string(r) +
                                       " out of range for " +
                                       std::to_string(rows_) + " rows");
      }
      std::memcpy(x->data() + i * cols_, x_ + r * cols_,
                  cols_ * sizeof(double));
      if (labels != nullptr) (*labels)[i] = labels_[r];
    }
    return Status::Ok();
  }

 private:
  const std::string name_;
  const DataSourceConfig config_;
  void* mapping_ = MAP_FAILED;
  std::size_t size_ = 0;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  int num_classes_ = 0;
  const double* x_ = nullptr;
  const int* labels_ = nullptr;
};

}  // namespace

Status ConvertSourceToBinary(DataSource& source, const std::string& path) {
  if (source.rows() == 0 || source.cols() == 0) {
    return Status::InvalidArgument("cannot convert an empty source (" +
                                   source.name() + ")");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const std::uint32_t fields[4] = {
      static_cast<std::uint32_t>(source.rows()),
      static_cast<std::uint32_t>(source.cols()),
      static_cast<std::uint32_t>(source.num_classes()), 0};
  out.write(kBinaryDatasetMagic, sizeof(kBinaryDatasetMagic));
  out.write(reinterpret_cast<const char*>(fields), sizeof(fields));
  std::vector<int> labels;
  labels.reserve(source.rows());
  const Status streamed = source.ForEachChunk([&](const ChunkSpec& chunk) {
    out.write(reinterpret_cast<const char*>(chunk.x),
              static_cast<std::streamsize>(chunk.rows * chunk.cols *
                                           sizeof(double)));
    labels.insert(labels.end(), chunk.labels, chunk.labels + chunk.rows);
    return out ? Status::Ok() : Status::IoError("write failed for " + path);
  });
  if (!streamed.ok()) return streamed;
  out.write(reinterpret_cast<const char*>(labels.data()),
            static_cast<std::streamsize>(labels.size() * sizeof(int)));
  // The buffered tail reaches the file only here; a full device fails now.
  out.close();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

StatusOr<std::unique_ptr<DataSource>> OpenMmapSource(
    const std::string& path, const std::string& name,
    const DataSourceConfig& config) {
  auto source = std::make_unique<MmapSource>(name, config);
  const Status status = source->Open(path);
  if (!status.ok()) return status;
  return std::unique_ptr<DataSource>(std::move(source));
}

StatusOr<Dataset> LoadDatasetBinary(const std::string& path,
                                    const std::string& name) {
  auto source = OpenMmapSource(path, name, {});
  if (!source.ok()) return source.status();
  return source.value()->Materialize();
}

}  // namespace mcirbm::data
