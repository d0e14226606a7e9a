// google-benchmark microbenchmarks for the numeric kernels:
// GEMM variants, column sums, CD-1 epoch, sls gradient naive vs fast (the ablation of
// the algebraic reduction), the three clusterers, and the CSV reader and
// writer of the data layer.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "clustering/affinity_propagation.h"
#include "clustering/density_peaks.h"
#include "clustering/kmeans.h"
#include "core/sls_gradient.h"
#include "data/io.h"
#include "data/loaders.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "linalg/ops.h"
#include "rbm/grbm.h"
#include "rbm/rbm.h"
#include "rng/rng.h"

namespace {

using namespace mcirbm;  // NOLINT: bench driver

linalg::Matrix RandomMatrix(std::size_t r, std::size_t c,
                            std::uint64_t seed) {
  rng::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

// GEMM benches take the product shape op(A)·op(B) = (m x k)·(k x n) as
// three args. Square sizes plus the VT CD shape (879 rows, 899 visible,
// 96 hidden) that dominates sls-GRBM training; items = multiply-adds.
void GemmArgs(benchmark::internal::Benchmark* b) {
  for (int s : {64, 128, 256}) b->Args({s, s, s});
  b->Args({879, 899, 96});
}

void BM_Gemm(benchmark::State& state) {
  const std::size_t m = state.range(0), k = state.range(1), n = state.range(2);
  const linalg::Matrix a = RandomMatrix(m, k, 1);
  const linalg::Matrix b = RandomMatrix(k, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Gemm(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_Gemm)->Apply(GemmArgs);

void BM_GemmTransA(benchmark::State& state) {
  const std::size_t m = state.range(0), k = state.range(1), n = state.range(2);
  const linalg::Matrix a = RandomMatrix(k, m, 3);
  const linalg::Matrix b = RandomMatrix(k, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::GemmTransA(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_GemmTransA)->Apply(GemmArgs);

void BM_GemmTransB(benchmark::State& state) {
  const std::size_t m = state.range(0), k = state.range(1), n = state.range(2);
  const linalg::Matrix a = RandomMatrix(m, k, 5);
  const linalg::Matrix b = RandomMatrix(n, k, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::GemmTransB(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_GemmTransB)->Apply(GemmArgs);

void BM_AccumulateGemmTransA(benchmark::State& state) {
  const std::size_t m = state.range(0), k = state.range(1), n = state.range(2);
  const linalg::Matrix a = RandomMatrix(k, m, 7);
  const linalg::Matrix b = RandomMatrix(k, n, 8);
  linalg::Matrix out(m, n);
  for (auto _ : state) {
    linalg::AccumulateGemmTransA(1e-3, a, b, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_AccumulateGemmTransA)->Apply(GemmArgs);

void BM_PairwiseDistances(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const linalg::Matrix m = RandomMatrix(n, 64, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::PairwiseSquaredDistances(m));
  }
}
BENCHMARK(BM_PairwiseDistances)->Arg(128)->Arg(512);

// Args: {rows, cols}. The CD-1 step's bias gradients at VT's shape: the
// visible sums (879 x 899) and the hidden sums (879 x 96).
void BM_ColSums(benchmark::State& state) {
  const linalg::Matrix m = RandomMatrix(state.range(0), state.range(1), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::ColSums(m));
  }
  state.SetItemsProcessed(state.iterations() * m.size());
}
BENCHMARK(BM_ColSums)->Args({879, 899})->Args({879, 96});

void BM_RbmCdEpoch(benchmark::State& state) {
  const int nv = static_cast<int>(state.range(0));
  rbm::RbmConfig cfg;
  cfg.num_visible = nv;
  cfg.num_hidden = 64;
  cfg.epochs = 1;
  cfg.learning_rate = 1e-4;
  const linalg::Matrix x = RandomMatrix(256, nv, 6);
  for (auto _ : state) {
    rbm::Grbm model(cfg);
    benchmark::DoNotOptimize(model.Train(x));
  }
}
BENCHMARK(BM_RbmCdEpoch)->Arg(128)->Arg(512)->Arg(899);

// The headline kernel ablation: literal pairwise Eq. 27 vs the GEMM
// reduction, at growing cluster sizes. The naive form is O(N^2 d), the
// fast form O(N d); the gap is the reason the reduction exists.
void SlsGradientBench(benchmark::State& state, bool fast) {
  const std::size_t m = state.range(0);
  const std::size_t nv = 64, nh = 32;
  const linalg::Matrix v = RandomMatrix(m, nv, 7);
  const linalg::Matrix w = RandomMatrix(nv, nh, 8);
  std::vector<double> b(nh, 0.1);
  linalg::Matrix h = linalg::Gemm(v, w);
  linalg::AddRowVector(&h, b);
  linalg::SigmoidInPlace(&h);
  voting::LocalSupervision sup;
  sup.num_clusters = 3;
  sup.cluster_of.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    sup.cluster_of[i] = static_cast<int>(i % 3);
  }
  std::vector<std::size_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) idx[i] = i;
  const core::SupervisionBatch batch =
      core::BuildSupervisionBatch(sup, idx);
  linalg::Matrix dw(nv, nh);
  std::vector<double> db(nh, 0.0);
  for (auto _ : state) {
    dw.Fill(0.0);
    std::fill(db.begin(), db.end(), 0.0);
    if (fast) {
      core::AccumulateSlsGradientFast(v, h, batch, w, b, {}, {&dw, &db});
    } else {
      core::AccumulateSlsGradientNaive(v, h, batch, w, b, {}, {&dw, &db});
    }
    benchmark::DoNotOptimize(dw.data());
  }
}
void BM_SlsGradientNaive(benchmark::State& state) {
  SlsGradientBench(state, false);
}
void BM_SlsGradientFast(benchmark::State& state) {
  SlsGradientBench(state, true);
}
BENCHMARK(BM_SlsGradientNaive)->Arg(32)->Arg(128)->Arg(256);
BENCHMARK(BM_SlsGradientFast)->Arg(32)->Arg(128)->Arg(256)->Arg(1024);

data::Dataset BenchBlobs(int n, int features = 32) {
  data::GaussianMixtureSpec spec;
  spec.name = "bench";
  spec.num_classes = 3;
  spec.num_instances = n;
  spec.num_features = features;
  spec.separation = 4.0;
  return data::GenerateGaussianMixture(spec, 9);
}

// Args: {n, features}. {879, 899} is VT's shape, the k-means voter's and
// the evaluation clusterer's input on the headline run.
void BM_KMeans(benchmark::State& state) {
  const data::Dataset ds = BenchBlobs(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)));
  clustering::KMeansConfig cfg;
  cfg.k = 3;
  const clustering::KMeans km(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(km.Cluster(ds.x, 1));
  }
}
BENCHMARK(BM_KMeans)->Args({256, 32})->Args({1024, 32})->Args({879, 899});

void BM_DensityPeaks(benchmark::State& state) {
  const data::Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  clustering::DensityPeaksConfig cfg;
  cfg.k = 3;
  const clustering::DensityPeaks dp(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp.Cluster(ds.x, 1));
  }
}
BENCHMARK(BM_DensityPeaks)->Arg(256)->Arg(512);

// Args: {n, target_clusters}. 0 is the median preference (one probe);
// {1055, 2} is the ap voter's preference bisection at QB's size, whose
// n×n messages no longer fit in L2.
void BM_AffinityPropagation(benchmark::State& state) {
  const data::Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  clustering::AffinityPropagationConfig cfg;
  cfg.target_clusters = static_cast<int>(state.range(1));
  const clustering::AffinityPropagation ap(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ap.Cluster(ds.x, 1));
  }
}
BENCHMARK(BM_AffinityPropagation)
    ->Args({128, 0})
    ->Args({256, 0})
    ->Args({1055, 2});

// The ap voter on QB itself: uci:1 (1055 x 41, generator seed 7) under the
// pipeline's binarize transform, k = 2. Unlike the blobs above, its
// preference search reaches the all-exemplar floor, where it stops early.
void BM_AffinityPropagationQb(benchmark::State& state) {
  data::Dataset ds = data::GenerateUciLike(1, 7);
  data::MinMaxScaleInPlace(&ds.x);
  data::BinarizeAtColumnMeanInPlace(&ds.x);
  clustering::AffinityPropagationConfig cfg;
  cfg.target_clusters = 2;
  const clustering::AffinityPropagation ap(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ap.Cluster(ds.x, 1));
  }
}
BENCHMARK(BM_AffinityPropagationQb)->Unit(benchmark::kMillisecond);

// The data layer at VT's shape: synth msra:8 (879 x 899 plus the label
// column, generator seed 7), written once to a temporary CSV that is
// removed at exit. BM_CsvLoad reads it with LoadDataset, BM_CsvSave writes
// it with SaveDatasetCsv; items are cells.
class VtCsv {
 public:
  VtCsv()
      : dataset_(data::GenerateMsraLike(8, 7)),
        path_(TempPath("load")),
        save_path_(TempPath("save")) {
    if (!data::SaveDatasetCsv(dataset_, path_).ok()) std::abort();
  }
  ~VtCsv() {
    std::remove(path_.c_str());
    std::remove(save_path_.c_str());
  }
  VtCsv(const VtCsv&) = delete;
  VtCsv& operator=(const VtCsv&) = delete;

  const data::Dataset& dataset() const { return dataset_; }
  const std::string& path() const { return path_; }
  const std::string& save_path() const { return save_path_; }
  std::int64_t cells() const {
    return static_cast<std::int64_t>(dataset_.num_instances() *
                                     (dataset_.num_features() + 1));
  }

 private:
  static std::string TempPath(const char* what) {
    return (std::filesystem::temp_directory_path() /
            ("mcirbm_bench_vt_" + std::string(what) + "_" +
             std::to_string(::getpid()) + ".csv"))
        .string();
  }

  data::Dataset dataset_;
  std::string path_;
  std::string save_path_;
};

const VtCsv& SharedVtCsv() {
  static const VtCsv csv;
  return csv;
}

void BM_CsvLoad(benchmark::State& state) {
  const VtCsv& csv = SharedVtCsv();
  for (auto _ : state) {
    auto loaded = data::LoadDataset(csv.path());
    if (!loaded.ok()) state.SkipWithError("LoadDataset failed");
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations() * csv.cells());
}
BENCHMARK(BM_CsvLoad)->Unit(benchmark::kMillisecond);

void BM_CsvSave(benchmark::State& state) {
  const VtCsv& csv = SharedVtCsv();
  for (auto _ : state) {
    if (!data::SaveDatasetCsv(csv.dataset(), csv.save_path()).ok()) {
      state.SkipWithError("SaveDatasetCsv failed");
    }
  }
  state.SetItemsProcessed(state.iterations() * csv.cells());
}
BENCHMARK(BM_CsvSave)->Unit(benchmark::kMillisecond);

}  // namespace

// Records which GEMM kernel set ran (the widest the CPU supports) in the
// context block of every report, so a JSON record taken on a machine
// without AVX-512 is not read against one from an AVX-512 machine.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("gemm_kernels",
                              std::string(linalg::GemmKernelName()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
