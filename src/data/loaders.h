// String-spec dataset loader registry — the single entry point every
// consumer (pipeline configs, benches, the serve executor, the CLI) uses
// to turn a dataset spec into a DataSource.
//
// Spec grammar: "<scheme>:<rest>" with a registered scheme, or a bare
// path whose scheme is inferred (extension first, then magic sniffing).
// Built-in schemes:
//
//   csv:<path>               SaveDatasetCsv layout (trailing label column)
//   bin:<path>               mcirbm-data v1 (binary_io.h), mmap-backed
//   libsvm:<path>            sparse text "<label> <idx>:<val> ..."
//   synth:<family>:<index>[:<seed>]
//                            generated paper dataset; family msra|uci,
//                            seed defaults to DataSourceConfig::synth_seed
//
// Bare-path inference: .csv -> csv; .libsvm/.svm -> libsvm; .bin/.mcd ->
// bin; anything else is sniffed by magic (mcirbm-data files open as bin,
// the rest falls back to csv). New backends register like clusterers do:
// one factory in DataLoaderRegistry makes a format available to the
// pipeline, the benches, serving, and the CLI at once.
#ifndef MCIRBM_DATA_LOADERS_H_
#define MCIRBM_DATA_LOADERS_H_

#include <memory>
#include <string>

#include "data/dataset.h"
#include "data/source.h"
#include "util/registry.h"
#include "util/status.h"

namespace mcirbm::data {

/// Process-wide scheme -> factory table for DataSource backends. A factory
/// receives the spec remainder (after "scheme:") and the shared config.
class DataLoaderRegistry
    : public NamedRegistry<StatusOr<std::unique_ptr<DataSource>>(
          const std::string&, const DataSourceConfig&)> {
 public:
  /// The singleton, pre-populated with the built-in loaders.
  static DataLoaderRegistry& Global();

 private:
  DataLoaderRegistry();
};

/// Opens `spec` through the registry, inferring the scheme for bare paths.
StatusOr<std::unique_ptr<DataSource>> OpenDataSource(
    const std::string& spec, const DataSourceConfig& config = {});

/// OpenDataSource + Materialize, accepting any registered spec. A CSV is
/// read in one pass by LoadDatasetCsv (the same rows accepted, the same
/// errors) instead of through the streaming CSV source's two.
StatusOr<Dataset> LoadDataset(const std::string& spec,
                              const DataSourceConfig& config = {});

}  // namespace mcirbm::data

#endif  // MCIRBM_DATA_LOADERS_H_
