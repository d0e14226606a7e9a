#include "bench_common.h"

#include <cstdlib>
#include <iostream>
#include <map>
#include <utility>

#include "data/loaders.h"
#include "eval/report.h"
#include "util/timer.h"

namespace mcirbm::bench {
namespace {

long EnvLong(const char* name, long fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atol(value) : fallback;
}

std::vector<std::string>& MutableDataSpecs() {
  static std::vector<std::string> specs;
  return specs;
}

}  // namespace

bool ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--data") {
      if (i + 1 >= argc) {
        std::cerr << "error: --data needs a loader spec\n";
        return false;
      }
      MutableDataSpecs().push_back(argv[++i]);
    } else if (arg.rfind("--data=", 0) == 0) {
      MutableDataSpecs().push_back(arg.substr(7));
    } else {
      std::cerr << "error: unknown bench flag '" << arg
                << "' (only --data <spec> is accepted)\n";
      return false;
    }
  }
  return true;
}

const std::vector<std::string>& BenchDataSpecs() {
  return MutableDataSpecs();
}

std::vector<data::Dataset> LoadBenchDatasets(std::uint64_t seed) {
  std::vector<data::Dataset> datasets;
  datasets.reserve(BenchDataSpecs().size());
  for (const std::string& spec : BenchDataSpecs()) {
    data::DataSourceConfig config;
    config.synth_seed = seed;
    auto loaded = data::LoadDataset(spec, config);
    if (!loaded.ok()) {
      std::cerr << "error: --data " << spec << ": "
                << loaded.status().ToString() << "\n";
      std::exit(2);
    }
    datasets.push_back(std::move(loaded).value());
  }
  return datasets;
}

eval::ExperimentConfig MakeBenchConfig(bool grbm_family) {
  eval::ExperimentConfig config = eval::MakePaperConfig(grbm_family);
  config.repeats = static_cast<int>(EnvLong("MCIRBM_BENCH_REPEATS", 3));
  config.seed = static_cast<std::uint64_t>(EnvLong("MCIRBM_BENCH_SEED", 7));
  if (EnvLong("MCIRBM_BENCH_FULL", 0) == 0) {
    config.max_instances =
        static_cast<std::size_t>(EnvLong("MCIRBM_BENCH_MAX_N", 250));
  }
  config.data_specs = BenchDataSpecs();
  return config;
}

const std::vector<eval::DatasetExperimentResult>& FamilyResults(
    bool grbm_family) {
  static std::map<bool, std::vector<eval::DatasetExperimentResult>> cache;
  auto it = cache.find(grbm_family);
  if (it == cache.end()) {
    WallTimer timer;
    std::cout << "running " << (grbm_family ? "datasets I (MSRA-MM-like)"
                                            : "datasets II (UCI-like)")
              << " experiments"
              << (std::getenv("MCIRBM_BENCH_FULL") ? " [full size]"
                                                   : " [fast mode]")
              << "...\n"
              << std::flush;
    it = cache.emplace(grbm_family,
                       RunFamilyExperiments(MakeBenchConfig(grbm_family)))
             .first;
    std::cout << "experiments done in " << timer.Seconds() << "s\n";
  }
  return it->second;
}

int RunTableBench(eval::PaperTable table) {
  const bool grbm = eval::PaperTableIsGrbmFamily(table);
  const auto& results = FamilyResults(grbm);
  if (BenchDataSpecs().empty()) {
    eval::PrintTableComparison(std::cout, table, results);
  } else {
    // User-supplied --data sources: the paper's fixed 9-dataset
    // comparison doesn't apply, so render the measured grid alone.
    eval::PrintMeasuredTable(std::cout, eval::PaperTableMetric(table),
                             grbm, results);
  }
  eval::PrintFigureSeries(std::cout, table, results);
  const auto checks = eval::EvaluateShapeChecks(
      results, eval::PaperTableMetric(table), grbm);
  return eval::PrintShapeChecks(std::cout, checks);
}

int RunAveragesBench(bool grbm_family) {
  const auto& results = FamilyResults(grbm_family);
  eval::PrintAveragesFigure(std::cout, grbm_family, results);
  int failures = 0;
  const std::vector<std::string> metrics =
      grbm_family ? std::vector<std::string>{"accuracy", "purity", "fmi"}
                  : std::vector<std::string>{"accuracy", "rand", "fmi"};
  for (const auto& metric : metrics) {
    const auto checks =
        eval::EvaluateShapeChecks(results, metric, grbm_family);
    failures += eval::PrintShapeChecks(std::cout, checks);
  }
  return failures;
}

}  // namespace mcirbm::bench
