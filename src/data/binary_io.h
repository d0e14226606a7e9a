// mcirbm-data v1: the binary, mmap-able dataset artifact.
//
// Wire layout (little-endian, 8-byte-aligned blocks):
//
//   offset  size            field
//   ------  --------------  ------------------------------------------
//   0       8               magic "mcirbmd1"
//   8       4               u32 rows
//   12      4               u32 cols
//   16      4               u32 num_classes
//   20      4               u32 reserved (written as 0, ignored on read)
//   24      rows*cols*8     f64 feature block, row-major
//   24+8rc  rows*4          i32 label block, values in [0, num_classes)
//
// The header is exactly 24 bytes, so the f64 block starts 8-aligned and
// the i32 block (offset 24 + rows*cols*8) starts 4-aligned — both blocks
// can be read in place from a read-only mmap with zero copies. Total file
// size is fully determined by the header; any mismatch is corruption and
// loads fail with kParseError. The format round-trips CSV exactly: f64
// bits survive, and the CSV writer's %.17g cells mean
// csv -> binary -> csv reproduces the original file byte for byte.
//
// This is the out-of-core backend: OpenMmapSource yields zero-copy chunks
// and O(1) random row access, so CD training streams minibatches from a
// file larger than RAM with bit-identical results to in-memory training.
// `mcirbm_cli dataset convert` converts between this format and CSV.
#ifndef MCIRBM_DATA_BINARY_IO_H_
#define MCIRBM_DATA_BINARY_IO_H_

#include <memory>
#include <string>

#include "data/dataset.h"
#include "data/source.h"
#include "util/status.h"

namespace mcirbm::data {

/// The 8-byte magic opening every mcirbm-data v1 file.
inline constexpr char kBinaryDatasetMagic[8] = {'m', 'c', 'i', 'r',
                                                'b', 'm', 'd', '1'};

/// The one mcirbm-data v1 writer. Streams `source` into the layout above
/// without materializing it: feature chunks are written as they arrive
/// and only the label block (4 bytes/row) is buffered until the end, so
/// converting a CSV larger than RAM stays bounded by the source's chunk
/// size. An in-memory Dataset is written through MakeInMemorySource.
/// IoError when any byte fails to reach the file.
Status ConvertSourceToBinary(DataSource& source, const std::string& path);

/// Opens a mcirbm-data v1 file as a read-only mmap-backed source. The
/// header, file size, label range, and feature finiteness are validated up
/// front (one sequential pass; the page cache keeps it out-of-core safe);
/// after that, chunks and gathers are zero-copy / memcpy views into the
/// mapping. Truncated or corrupt files fail with kParseError.
StatusOr<std::unique_ptr<DataSource>> OpenMmapSource(
    const std::string& path, const std::string& name,
    const DataSourceConfig& config);

/// Materializing convenience wrapper over OpenMmapSource.
StatusOr<Dataset> LoadDatasetBinary(const std::string& path,
                                    const std::string& name);

}  // namespace mcirbm::data

#endif  // MCIRBM_DATA_BINARY_IO_H_
