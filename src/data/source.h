// Streaming dataset access: the DataSource abstraction.
//
// Every consumer above the data layer historically assumed a fully
// materialized in-RAM Dataset. DataSource generalizes that contract to
// fixed-size row chunks so ingestion, conversion, transform export, and
// CD training can run with bounded memory on data that exceeds RAM:
//
//   auto source = data::OpenCsvSource("train.csv", "train", {.max_resident_rows = 4096});
//   source.value()->ForEachChunk([&](const ChunkSpec& chunk) { ...; return Status::Ok(); });
//
// Backends (see also binary_io.h for the mmap-backed binary format and
// loaders.h for the string-spec registry that opens any of them):
//   - in-memory  — wraps an existing Dataset; chunks are zero-copy views.
//   - csv        — streams through util ScanCsv; one bounded chunk buffer.
//                  (LoadDataset materializes a CSV in one pass through
//                  LoadDatasetCsv instead.)
//   - libsvm     — sparse text rows densified at load (materializing).
//   - binary     — mcirbm-data v1 via mmap; zero-copy chunks and O(1)
//                  random row access (the out-of-core training backend).
//
// Iteration order is always row order, chunk boundaries depend only on
// (rows, max_resident_rows) — never on thread count — so anything derived
// from chunked iteration keeps the repo's determinism guarantees.
#ifndef MCIRBM_DATA_SOURCE_H_
#define MCIRBM_DATA_SOURCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace mcirbm::data {

/// Knobs shared by every DataSource backend.
struct DataSourceConfig {
  /// Upper bound on the rows resident in one streamed chunk; 0 = no bound
  /// (the whole dataset arrives as a single chunk).
  std::size_t max_resident_rows = 0;
  /// Seed consumed by generator-backed sources ("synth:" loader specs).
  std::uint64_t synth_seed = 0;
};

/// One streamed slice of a dataset: rows [row_begin, row_begin + rows).
/// The pointers are views owned by the source, valid only for the duration
/// of the ForEachChunk callback.
struct ChunkSpec {
  std::size_t row_begin = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  const double* x = nullptr;    ///< row-major rows x cols feature block
  const int* labels = nullptr;  ///< per-row class labels, length rows
};

/// Streaming, restartable dataset reader.
class DataSource {
 public:
  virtual ~DataSource() = default;
  DataSource() = default;
  DataSource(const DataSource&) = delete;
  DataSource& operator=(const DataSource&) = delete;

  virtual const std::string& name() const = 0;
  virtual std::size_t rows() const = 0;
  virtual std::size_t cols() const = 0;
  virtual int num_classes() const = 0;

  /// Streams every row, in row order, as chunks of at most
  /// config.max_resident_rows rows. A non-OK callback return aborts the
  /// scan and propagates. Restartable: each call re-iterates from row 0.
  virtual Status ForEachChunk(
      const std::function<Status(const ChunkSpec&)>& fn) = 0;

  /// True when GatherRows is supported (in-memory and mmap backends).
  /// Sequential text backends return false; convert them to the binary
  /// format for random access (out-of-core training needs it).
  virtual bool SupportsRandomAccess() const = 0;

  /// Gathers arbitrary rows, in the given order, into `x` (resized to
  /// indices.size() x cols()) and optionally `labels`. kInvalidArgument
  /// for sequential backends. Thread-safe for concurrent const use.
  virtual Status GatherRows(const std::vector<std::size_t>& indices,
                            linalg::Matrix* x,
                            std::vector<int>* labels) const;

  /// The backing Dataset when it is already memory-resident (zero-copy
  /// backends), nullptr otherwise.
  virtual const Dataset* DenseView() const { return nullptr; }

  /// Materializes the whole dataset via ForEachChunk and validates it.
  StatusOr<Dataset> Materialize();
};

/// Zero-copy source over an existing in-memory dataset (takes ownership).
/// `dataset` must satisfy Dataset::Validate (kInvalidArgument otherwise).
StatusOr<std::unique_ptr<DataSource>> MakeInMemorySource(
    Dataset dataset, const DataSourceConfig& config);

/// Streaming CSV source (SaveDatasetCsv layout: header + trailing integer
/// label column). Open performs one bounded-memory validation pass to
/// establish the shape and class count; each ForEachChunk re-streams the
/// file through a single chunk-sized buffer, and fails with kParseError
/// ("file changed since it was opened") if the file no longer has the
/// shape Open saw. Rows are checked by LabeledCsvRows (io.h), as in
/// LoadDatasetCsv. No random access.
StatusOr<std::unique_ptr<DataSource>> OpenCsvSource(
    const std::string& path, const std::string& name,
    const DataSourceConfig& config);

/// Loads a libsvm/sparse-text file ("<label> <idx>:<val> ..." with 1-based
/// feature indices; omitted features are 0). Distinct labels are mapped to
/// 0..C-1 in ascending numeric order (so the common -1/+1 convention maps
/// to 0/1). Materializing: the densified dataset lives in RAM.
StatusOr<Dataset> LoadDatasetLibsvm(const std::string& path,
                                    const std::string& name);

}  // namespace mcirbm::data

#endif  // MCIRBM_DATA_SOURCE_H_
