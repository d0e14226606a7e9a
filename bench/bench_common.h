// Shared driver for the table/figure bench binaries.
//
// Environment knobs (all optional):
//   MCIRBM_BENCH_FULL=1        run at full dataset size (default: capped)
//   MCIRBM_BENCH_MAX_N=<int>   instance cap in fast mode (default 250)
//   MCIRBM_BENCH_REPEATS=<int> repeats per dataset (default 3)
//   MCIRBM_BENCH_SEED=<int>    experiment seed (default 7)
//
// Every bench also accepts repeatable `--data <spec>` flags (loader specs
// from data/loaders.h — paths or csv:|bin:|libsvm:|synth: forms). When
// given, the named datasets replace the generated family sweep, so the
// tables/figures/ablations run against real ingested data (e.g. a
// converted mcirbm-data binary).
#ifndef MCIRBM_BENCH_BENCH_COMMON_H_
#define MCIRBM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/experiment.h"
#include "eval/paper_reference.h"

namespace mcirbm::bench {

/// Parses the shared bench argv (`--data <spec>`, repeatable; `--data=x`
/// also accepted). Prints an error and returns false on unknown flags or
/// a missing value. Call once at the top of main.
bool ParseBenchArgs(int argc, char** argv);

/// The --data specs collected by ParseBenchArgs, in argv order.
const std::vector<std::string>& BenchDataSpecs();

/// Loads every --data spec, exiting(2) with the loader's message on
/// failure. Empty when no --data flags were given — callers fall back to
/// their generated datasets.
std::vector<data::Dataset> LoadBenchDatasets(std::uint64_t seed);

/// Experiment configuration honoring the environment knobs above (and the
/// parsed --data specs, which replace the generated family sweep).
eval::ExperimentConfig MakeBenchConfig(bool grbm_family);

/// Runs (or reuses a per-process cache of) the family experiments for the
/// given config. The cache lets one binary print several tables/figures
/// without re-running the 9/6-dataset sweep.
const std::vector<eval::DatasetExperimentResult>& FamilyResults(
    bool grbm_family);

/// Full output for one paper table: comparison table, figure series, the
/// averages block, and shape checks. Returns the number of failed checks.
int RunTableBench(eval::PaperTable table);

/// Output for the averages figures (Fig. 5 / Fig. 9). Returns the number
/// of failed shape checks across the family's metrics.
int RunAveragesBench(bool grbm_family);

}  // namespace mcirbm::bench

#endif  // MCIRBM_BENCH_BENCH_COMMON_H_
