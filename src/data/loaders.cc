#include "data/loaders.h"

#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "data/binary_io.h"
#include "data/io.h"
#include "data/paper_datasets.h"
#include "util/string_util.h"

namespace mcirbm::data {

namespace {

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// "synth:<family>:<index>[:<seed>]" remainder -> generated dataset.
StatusOr<std::unique_ptr<DataSource>> OpenSynthSource(
    const std::string& rest, const DataSourceConfig& config) {
  const std::vector<std::string> parts = Split(rest, ':');
  if (parts.size() < 2 || parts.size() > 3) {
    return Status::ParseError(
        "synth spec must be synth:<msra|uci>:<index>[:<seed>], got 'synth:" +
        rest + "'");
  }
  const std::string family = Trim(parts[0]);
  int index = 0;
  if (!ParseInt(Trim(parts[1]), &index)) {
    return Status::ParseError("synth index must be an integer, got '" +
                              parts[1] + "'");
  }
  std::uint64_t seed = config.synth_seed;
  if (parts.size() == 3 && !ParseUint64(Trim(parts[2]), &seed)) {
    return Status::ParseError("synth seed must be an integer, got '" +
                              parts[2] + "'");
  }
  Dataset dataset;
  if (family == "msra") {
    if (index < 0 || index >= NumMsraDatasets()) {
      return Status::InvalidArgument(
          "synth msra index " + std::to_string(index) + " out of range [0, " +
          std::to_string(NumMsraDatasets()) + ")");
    }
    dataset = GenerateMsraLike(index, seed);
  } else if (family == "uci") {
    if (index < 0 || index >= NumUciDatasets()) {
      return Status::InvalidArgument(
          "synth uci index " + std::to_string(index) + " out of range [0, " +
          std::to_string(NumUciDatasets()) + ")");
    }
    dataset = GenerateUciLike(index, seed);
  } else {
    return Status::ParseError("synth family must be msra|uci, got '" +
                              family + "'");
  }
  return MakeInMemorySource(std::move(dataset), config);
}

// Bare paths: extension first, then magic sniffing (a mcirbm-data file
// renamed .dat still opens), defaulting to csv.
std::string InferScheme(const std::string& path) {
  if (HasSuffix(path, ".csv")) return "csv";
  if (HasSuffix(path, ".libsvm") || HasSuffix(path, ".svm")) return "libsvm";
  if (HasSuffix(path, ".bin") || HasSuffix(path, ".mcd")) return "bin";
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  if (in.read(magic, sizeof(magic)) &&
      std::memcmp(magic, kBinaryDatasetMagic, sizeof(magic)) == 0) {
    return "bin";
  }
  return "csv";
}

// A spec split into its scheme and the rest ("csv:a.csv" -> csv, a.csv);
// a bare path gets the inferred scheme.
struct ResolvedSpec {
  std::string scheme;
  std::string rest;
};

StatusOr<ResolvedSpec> ResolveSpec(const std::string& spec) {
  const std::string trimmed = Trim(spec);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty dataset spec");
  }
  const std::size_t colon = trimmed.find(':');
  if (colon != std::string::npos &&
      DataLoaderRegistry::Global().Contains(trimmed.substr(0, colon))) {
    return ResolvedSpec{trimmed.substr(0, colon), trimmed.substr(colon + 1)};
  }
  return ResolvedSpec{InferScheme(trimmed), trimmed};
}

}  // namespace

DataLoaderRegistry::DataLoaderRegistry() : NamedRegistry("data loader") {
  AddBuiltin("csv",
             [](const std::string& path, const DataSourceConfig& config) {
               return OpenCsvSource(path, path, config);
             });
  AddBuiltin("bin",
             [](const std::string& path, const DataSourceConfig& config) {
               return OpenMmapSource(path, path, config);
             });
  AddBuiltin("libsvm", [](const std::string& path,
                          const DataSourceConfig& config)
                 -> StatusOr<std::unique_ptr<DataSource>> {
    auto dataset = LoadDatasetLibsvm(path, path);
    if (!dataset.ok()) return dataset.status();
    return MakeInMemorySource(std::move(dataset).value(), config);
  });
  AddBuiltin("synth", OpenSynthSource);
}

DataLoaderRegistry& DataLoaderRegistry::Global() {
  static DataLoaderRegistry* registry = new DataLoaderRegistry();
  return *registry;
}

StatusOr<std::unique_ptr<DataSource>> OpenDataSource(
    const std::string& spec, const DataSourceConfig& config) {
  auto resolved = ResolveSpec(spec);
  if (!resolved.ok()) return resolved.status();
  return DataLoaderRegistry::Global().Create(resolved.value().scheme,
                                             resolved.value().rest, config);
}

StatusOr<Dataset> LoadDataset(const std::string& spec,
                              const DataSourceConfig& config) {
  auto resolved = ResolveSpec(spec);
  if (!resolved.ok()) return resolved.status();
  const auto& [scheme, rest] = resolved.value();
  // A CSV source would scan the file twice (Open's shape pass, then the
  // data); materializing it directly reads it once.
  if (scheme == "csv") return LoadDatasetCsv(rest, rest);
  auto source = DataLoaderRegistry::Global().Create(scheme, rest, config);
  if (!source.ok()) return source.status();
  return source.value()->Materialize();
}

}  // namespace mcirbm::data
