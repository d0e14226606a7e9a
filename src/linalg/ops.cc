#include "linalg/ops.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <utility>

#include "parallel/thread_pool.h"

namespace mcirbm::linalg {

namespace {
// Rows per shard so one shard carries ~64k multiply-adds. Depends only on
// the problem shape (never the thread count), so shard boundaries — and
// therefore results — are identical at any pool width. Small problems
// collapse to a single shard, which ParallelFor runs inline.
std::size_t RowGrain(std::size_t unit_cost) {
  constexpr std::size_t kTargetShardWork = std::size_t{1} << 16;
  return std::max<std::size_t>(
      1, kTargetShardWork / std::max<std::size_t>(1, unit_cost));
}

// --- The GEMM core: C += alpha · op(A) · op(B) -----------------------------
//
// A microkernel updates c[0..R)[0..W) += ap · bp over kc steps, held in
// registers. Per step, `ap` carries the R packed values of A and `bp` one
// row of B; B rows sit ldb apart. Every element takes c ← c + a·b, one
// rounded multiply and one rounded add, in ascending step order.
using MicroKernelFn = void (*)(std::size_t, const double*, const double*,
                               std::size_t, double*, std::size_t);

// Packs a shard's block of A: `rows` rows over kc depth steps, alpha folded
// in, into consecutive mr-row panels (the last may be shorter), panel q at
// dst + a_copies · q · mr · kc. Each panel holds its rows' values step after
// step, each value a_copies times — the layout the set's microkernels read.
// Element (r, p) sits at src[r * ld + p] for the row-major packer and at
// src[p * ld + r] for the column-major one (a transposed operand), which
// reads each step's rows once, contiguously, for all panels.
using PackFn = void (*)(const double* src, std::size_t ld, std::size_t rows,
                        std::size_t kc, double alpha, double* dst);

// dst[p * ld_dst + r] = src[r * ld_src + p] for r < rows, p < cols: the
// plain copy that packs a transposed B.
using TransposeFn = void (*)(const double* src, std::size_t ld_src,
                             std::size_t rows, std::size_t cols, double* dst,
                             std::size_t ld_dst);

// Squared distances from `rows` rows of d values at x (row-major) to k
// centers (k rows of d values): out[r * k + c] receives row r's distance to
// center c.
using DistanceFn = void (*)(const double* x, std::size_t rows, std::size_t d,
                            const double* centers, std::size_t k,
                            double* out);

// Depth blocks of kKc steps keep a packed A block and one B sliver
// cache-resident.
constexpr std::size_t kKc = 256;
constexpr std::size_t kMaxMr = 8;      // the tallest tile of any set
constexpr std::size_t kMaxTile = 192;  // doubles in the largest tile

// A kernel set: one register tile, mr x nr, its microkernels, the packers
// that lay A out for them, and the K-means distance kernel. A one-row shard
// (m = 1, e.g. a single served row) has no second row to share each B load
// with, so it widens its tile to 1 x 2nr to keep as many accumulators in
// flight.
struct KernelSet {
  std::string_view name;
  std::size_t mr;
  std::size_t nr;
  std::size_t a_copies;  // how many times the A panel stores each value
  MicroKernelFn row;     // the 1 x 2nr kernel
  // Indexed by panel rows: the last panel of a shard may hold fewer than
  // mr rows and runs only the rows it has.
  std::array<MicroKernelFn, kMaxMr + 1> panel;
  PackFn pack_rows;  // A stored row-major
  PackFn pack_cols;  // A stored column-major
  TransposeFn transpose;
  DistanceFn distances;
};

// --- Squared distances, 8 rows per vector -----------------------------------
//
// A distance tile holds P panels of kPanel rows, one row per vector lane,
// against C centers: P·C independent add chains hide the add latency that
// bounds the one-row loop. Each lane adds fl(fl(x − c)²) in ascending
// feature order from 0, the SquaredDistance sequence. A tile reads its rows
// in place (the AVX-512 tile transposes kDistanceBlock features of them at a
// time on its stack), so the kernel allocates nothing.
constexpr std::size_t kPanel = 8;
constexpr std::size_t kDistanceBlock = 64;

// Distances from `rows` (1 to P·kPanel) rows at x to C centers; writes the
// P·C accumulators to out[(q * C + c) * kPanel + lane], the lanes past
// `rows` undefined.
using DistanceTileFn = void (*)(const double* x, std::size_t rows,
                                std::size_t d, const double* centers,
                                double* out);

// Indexed [P - 1][C - 1]: the tiles of an ISA struct with at most
// kTilePanels panels and kTileCenters centers.
template <typename Isa>
using DistanceTiles =
    std::array<std::array<DistanceTileFn, Isa::kTileCenters>,
               Isa::kTilePanels>;

template <typename Isa, std::size_t... P, std::size_t... C>
constexpr DistanceTiles<Isa> MakeDistanceTiles(std::index_sequence<P...>,
                                               std::index_sequence<C...>) {
  const auto row = [](auto panels) {
    return std::array<DistanceTileFn, Isa::kTileCenters>{
        &Isa::template DistanceTile<decltype(panels)::value, C + 1>...};
  };
  return {row(std::integral_constant<std::size_t, P + 1>{})...};
}

// The distance driver every set shares: it walks the rows tile by tile and
// stores the lanes of real rows.
template <typename Isa>
void TileDistances(const double* x, std::size_t rows, std::size_t d,
                   const double* centers, std::size_t k, double* out) {
  constexpr std::size_t kTileRows = Isa::kTilePanels * kPanel;
  static constexpr DistanceTiles<Isa> kTiles = MakeDistanceTiles<Isa>(
      std::make_index_sequence<Isa::kTilePanels>{},
      std::make_index_sequence<Isa::kTileCenters>{});
  double acc[kTileRows * Isa::kTileCenters];
  for (std::size_t r0 = 0; r0 < rows; r0 += kTileRows) {
    const std::size_t tile_rows = std::min(kTileRows, rows - r0);
    const std::size_t panels = (tile_rows + kPanel - 1) / kPanel;
    for (std::size_t c0 = 0; c0 < k; c0 += Isa::kTileCenters) {
      const std::size_t cn = std::min(Isa::kTileCenters, k - c0);
      kTiles[panels - 1][cn - 1](x + r0 * d, tile_rows, d, centers + c0 * d,
                                 acc);
      for (std::size_t r = 0; r < tile_rows; ++r) {
        for (std::size_t c = 0; c < cn; ++c) {
          out[(r0 + r) * k + c0 + c] =
              acc[(r / kPanel * cn + c) * kPanel + r % kPanel];
        }
      }
    }
  }
}

// Builds the set of an ISA struct that provides kMr, kNr, kACopies, a
// Kernel<R, W> template, PackRows, PackCols, Transpose, kTilePanels,
// kTileCenters and a DistanceTile<P, C> template.
template <typename Isa, std::size_t... R>
constexpr KernelSet MakeKernelSet(std::string_view name,
                                  std::index_sequence<R...>) {
  static_assert(sizeof...(R) == Isa::kMr && Isa::kMr <= kMaxMr);
  static_assert(Isa::kMr * Isa::kNr <= kMaxTile && 2 * Isa::kNr <= kMaxTile);
  return {name,
          Isa::kMr,
          Isa::kNr,
          Isa::kACopies,
          &Isa::template Kernel<1, 2 * Isa::kNr>,
          {nullptr, &Isa::template Kernel<R + 1, Isa::kNr>...},
          &Isa::PackRows,
          &Isa::PackCols,
          &Isa::Transpose,
          &TileDistances<Isa>};
}

// The portable set, compiled on every platform: a 3 x 8 tile, 12
// accumulator registers at the baseline SSE2 flags with no spills. Each
// packed A value is stored twice, so the compiler pairs it with two
// adjacent B columns without a broadcast. At SSE2 width this beats a
// broadcast kernel like the AVX-512 one below: on an x86-64 VM broadcast
// tiles of 3 x 6, 4 x 6 and 6 x 4 ran 10-40% slower.
//
// acc[r][j ^ 1] holds c(r, j), and each column pair is updated odd column
// first. The arithmetic is the same; the layout only steers g++'s
// vectorizer, which otherwise swaps the lanes of every B load (one shuffle
// per load) and spills part of the tile.
struct Portable {
  static constexpr std::size_t kMr = 3;
  static constexpr std::size_t kNr = 8;
  static constexpr std::size_t kACopies = 2;

  template <std::size_t R, std::size_t W>
  static void Kernel(std::size_t kc, const double* ap, const double* bp,
                     std::size_t ldb, double* c, std::size_t ldc) {
    static_assert(W % 2 == 0);
    double acc[R][W];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t j = 0; j < W; ++j) acc[r][j ^ 1] = c[r * ldc + j];
    }
    for (std::size_t p = 0; p < kc; ++p, ap += 2 * R, bp += ldb) {
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t j = 0; j < W; j += 2) {
          acc[r][j] += ap[2 * r + 1] * bp[j + 1];  // column j + 1
          acc[r][j + 1] += ap[2 * r] * bp[j];      // column j
        }
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t j = 0; j < W; ++j) c[r * ldc + j] = acc[r][j ^ 1];
    }
  }

  static void PackRows(const double* src, std::size_t ld, std::size_t rows,
                       std::size_t kc, double alpha, double* dst) {
    for (std::size_t q0 = 0; q0 < rows; q0 += kMr) {
      const std::size_t pr = std::min(kMr, rows - q0);
      double* panel = dst + kACopies * q0 * kc;
      for (std::size_t r = 0; r < pr; ++r) {
        for (std::size_t p = 0; p < kc; ++p) {
          std::fill_n(panel + kACopies * (p * pr + r), kACopies,
                      alpha * src[(q0 + r) * ld + p]);
        }
      }
    }
  }

  static void PackCols(const double* src, std::size_t ld, std::size_t rows,
                       std::size_t kc, double alpha, double* dst) {
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t q0 = 0; q0 < rows; q0 += kMr) {
        const std::size_t pr = std::min(kMr, rows - q0);
        double* step = dst + kACopies * (q0 * kc + p * pr);
        for (std::size_t r = 0; r < pr; ++r) {
          std::fill_n(step + kACopies * r, kACopies,
                      alpha * src[p * ld + q0 + r]);
        }
      }
    }
  }

  static void Transpose(const double* src, std::size_t ld_src,
                        std::size_t rows, std::size_t cols, double* dst,
                        std::size_t ld_dst) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t p = 0; p < cols; ++p) {
        dst[p * ld_dst + r] = src[r * ld_src + p];
      }
    }
  }

  // One panel against two centers, its 8 rows read in place: 16 add
  // chains in plain C++ (a transposing tile like the AVX-512 one below ran
  // slower than the scalar loop at SSE2 width).
  static constexpr std::size_t kTilePanels = 1;
  static constexpr std::size_t kTileCenters = 2;

  template <std::size_t P, std::size_t C>
  static void DistanceTile(const double* x, std::size_t rows, std::size_t d,
                           const double* centers, double* out) {
    static_assert(P == 1);
    // Lanes past `rows` repeat the last row; their sums are never stored.
    const double* row[kPanel];
    for (std::size_t lane = 0; lane < kPanel; ++lane) {
      row[lane] = x + std::min(lane, rows - 1) * d;
    }
    double acc[C][kPanel] = {};
    for (std::size_t p = 0; p < d; ++p) {
      for (std::size_t c = 0; c < C; ++c) {
        const double center = centers[c * d + p];
        for (std::size_t lane = 0; lane < kPanel; ++lane) {
          const double diff = row[lane][p] - center;
          acc[c][lane] += diff * diff;
        }
      }
    }
    std::copy_n(acc[0], C * kPanel, out);
  }
};
constexpr KernelSet kPortable = MakeKernelSet<Portable>(
    "portable", std::make_index_sequence<Portable::kMr>{});

#if defined(__x86_64__) && defined(__GNUC__)
typedef double Vec8 __attribute__((vector_size(64)));

// The AVX-512F set: an 8 x 24 tile, 24 of the 32 zmm registers as
// accumulators. Per step the kernel loads the B row as W / 8 vectors,
// broadcasts each packed A value and multiplies it into them: every lane
// takes the same rounded multiply and add as the portable kernel. The
// target attribute confines the ISA to these functions, so AVX-512
// instructions appear only in code reached after the CPU check. (A
// separate -mavx512f translation unit would not do: it can emit AVX-512
// copies of inline functions it shares with the rest of the program, such
// as std::vector members, and the linker keeps one copy.)
struct Avx512 {
  static constexpr std::size_t kMr = 8;
  static constexpr std::size_t kNr = 24;
  static constexpr std::size_t kACopies = 1;
  static constexpr std::size_t kLanes = sizeof(Vec8) / sizeof(double);
  static_assert(kLanes == kMr && kLanes == kPanel);
  // Two panels against four centers: 8 accumulator registers.
  static constexpr std::size_t kTilePanels = 2;
  static constexpr std::size_t kTileCenters = 4;

  template <std::size_t R, std::size_t W>
  [[gnu::target("avx512f")]] static void Kernel(
      std::size_t kc, const double* ap, const double* bp, std::size_t ldb,
      double* c, std::size_t ldc) {
    static_assert(W % kLanes == 0);
    constexpr std::size_t kVecs = W / kLanes;
    Vec8 acc[R][kVecs];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(&acc[r][v], c + r * ldc + v * kLanes, sizeof(Vec8));
      }
    }
    for (std::size_t p = 0; p < kc; ++p, ap += R, bp += ldb) {
      Vec8 b[kVecs];
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(&b[v], bp + v * kLanes, sizeof(Vec8));
      }
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += ap[r] * b[v];
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < kVecs; ++v) {
        std::memcpy(c + r * ldc + v * kLanes, &acc[r][v], sizeof(Vec8));
      }
    }
  }

  // Transposes the 8 x 8 block at src (rows ld_src apart) into dst (rows
  // ld_dst apart), times alpha when kScaled: three rounds of interleaves,
  // one, two and then four doubles at a time, all in registers.
  template <bool kScaled>
  [[gnu::target("avx512f")]] static void Transpose8x8(
      const double* src, std::size_t ld_src, double alpha, double* dst,
      std::size_t ld_dst) {
    Vec8 r[kLanes], t[kLanes], u[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) {
      std::memcpy(&r[i], src + i * ld_src, sizeof(Vec8));
      if constexpr (kScaled) r[i] = alpha * r[i];
    }
    for (std::size_t i = 0; i < kLanes; i += 2) {
      t[i] = __builtin_shufflevector(r[i], r[i + 1], 0, 8, 2, 10, 4, 12, 6,
                                     14);
      t[i + 1] = __builtin_shufflevector(r[i], r[i + 1], 1, 9, 3, 11, 5, 13,
                                         7, 15);
    }
    for (std::size_t i : {0, 1, 4, 5}) {
      u[i] = __builtin_shufflevector(t[i], t[i + 2], 0, 1, 8, 9, 4, 5, 12,
                                     13);
      u[i + 2] = __builtin_shufflevector(t[i], t[i + 2], 2, 3, 10, 11, 6, 7,
                                         14, 15);
    }
    for (std::size_t i = 0; i < kLanes / 2; ++i) {
      const Vec8 lo = __builtin_shufflevector(u[i], u[i + 4], 0, 1, 2, 3, 8,
                                              9, 10, 11);
      const Vec8 hi = __builtin_shufflevector(u[i], u[i + 4], 4, 5, 6, 7, 12,
                                              13, 14, 15);
      std::memcpy(dst + i * ld_dst, &lo, sizeof(Vec8));
      std::memcpy(dst + (i + 4) * ld_dst, &hi, sizeof(Vec8));
    }
  }

  // dst[p * ld_dst + r] = (alpha ·) src[r * ld_src + p]: whole 8 x 8
  // blocks in registers, the ragged edges one value at a time.
  template <bool kScaled>
  [[gnu::target("avx512f")]] static void TransposeBlocks(
      const double* src, std::size_t ld_src, std::size_t rows,
      std::size_t cols, double alpha, double* dst, std::size_t ld_dst) {
    const std::size_t rows8 = rows / kLanes * kLanes;
    const std::size_t cols8 = cols / kLanes * kLanes;
    const auto scale = [alpha](double v) { return kScaled ? alpha * v : v; };
    for (std::size_t r = 0; r < rows8; r += kLanes) {
      for (std::size_t p = 0; p < cols8; p += kLanes) {
        Transpose8x8<kScaled>(src + r * ld_src + p, ld_src, alpha,
                              dst + p * ld_dst + r, ld_dst);
      }
      for (std::size_t p = cols8; p < cols; ++p) {
        for (std::size_t i = r; i < r + kLanes; ++i) {
          dst[p * ld_dst + i] = scale(src[i * ld_src + p]);
        }
      }
    }
    for (std::size_t r = rows8; r < rows; ++r) {
      for (std::size_t p = 0; p < cols; ++p) {
        dst[p * ld_dst + r] = scale(src[r * ld_src + p]);
      }
    }
  }

  [[gnu::target("avx512f")]] static void PackRows(
      const double* src, std::size_t ld, std::size_t rows, std::size_t kc,
      double alpha, double* dst) {
    for (std::size_t q0 = 0; q0 < rows; q0 += kMr) {
      const std::size_t pr = std::min(kMr, rows - q0);
      TransposeBlocks<true>(src + q0 * ld, ld, pr, kc, alpha, dst + q0 * kc,
                            pr);
    }
  }

  [[gnu::target("avx512f")]] static void PackCols(
      const double* src, std::size_t ld, std::size_t rows, std::size_t kc,
      double alpha, double* dst) {
    const std::size_t full = rows / kMr * kMr;
    const std::size_t tail = rows - full;
    for (std::size_t p = 0; p < kc; ++p) {
      const double* step = src + p * ld;
      for (std::size_t q0 = 0; q0 < full; q0 += kMr) {
        Vec8 v;
        std::memcpy(&v, step + q0, sizeof(Vec8));
        v = alpha * v;
        std::memcpy(dst + q0 * kc + p * kMr, &v, sizeof(Vec8));
      }
      for (std::size_t r = 0; r < tail; ++r) {
        dst[full * kc + p * tail + r] = alpha * step[full + r];
      }
    }
  }

  [[gnu::target("avx512f")]] static void Transpose(
      const double* src, std::size_t ld_src, std::size_t rows,
      std::size_t cols, double* dst, std::size_t ld_dst) {
    TransposeBlocks<false>(src, ld_src, rows, cols, 1.0, dst, ld_dst);
  }

  // Transposes kDistanceBlock features of each panel's rows into `block`
  // (feature by feature, a row per lane, a missing row's lanes zero), then
  // runs the block's features through the accumulators.
  template <std::size_t P, std::size_t C>
  [[gnu::target("avx512f")]] static void DistanceTile(
      const double* x, std::size_t rows, std::size_t d, const double* centers,
      double* out) {
    double block[P][kDistanceBlock * kLanes];
    Vec8 acc[P][C] = {};
    for (std::size_t f0 = 0; f0 < d; f0 += kDistanceBlock) {
      const std::size_t fc = std::min(kDistanceBlock, d - f0);
      for (std::size_t q = 0; q < P; ++q) {
        const std::size_t pr = std::min(kLanes, rows - q * kLanes);
        if (pr < kLanes) std::fill_n(block[q], fc * kLanes, 0.0);
        TransposeBlocks<false>(x + q * kLanes * d + f0, d, pr, fc, 1.0,
                               block[q], kLanes);
      }
      for (std::size_t p = 0; p < fc; ++p) {
        Vec8 xv[P];
        for (std::size_t q = 0; q < P; ++q) {
          std::memcpy(&xv[q], block[q] + p * kLanes, sizeof(Vec8));
        }
        for (std::size_t c = 0; c < C; ++c) {
          const double center = centers[c * d + f0 + p];
          for (std::size_t q = 0; q < P; ++q) {
            const Vec8 diff = xv[q] - center;
            acc[q][c] += diff * diff;
          }
        }
      }
    }
    for (std::size_t q = 0; q < P; ++q) {
      for (std::size_t c = 0; c < C; ++c) {
        std::memcpy(out + (q * C + c) * kPanel, &acc[q][c], sizeof(Vec8));
      }
    }
  }
};
constexpr KernelSet kAvx512 =
    MakeKernelSet<Avx512>("avx512", std::make_index_sequence<Avx512::kMr>{});
#endif

// Every set this CPU can run, widest first; the portable set is last.
const std::vector<const KernelSet*>& SupportedSets() {
  static const std::vector<const KernelSet*> sets = [] {
    std::vector<const KernelSet*> supported;
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) supported.push_back(&kAvx512);
#endif
    supported.push_back(&kPortable);
    return supported;
  }();
  return sets;
}

// Set by internal::ScopedGemmKernel; null runs the widest supported set.
std::atomic<const KernelSet*> g_scoped_set{nullptr};

const KernelSet& ActiveSet() {
  const KernelSet* scoped = g_scoped_set.load();
  return scoped != nullptr ? *scoped : *SupportedSets().front();
}

// A strided operand: element (i, j) sits at data[i * row_stride +
// j * col_stride], so a transpose is a view, not a copy.
struct View {
  const double* data;
  std::size_t row_stride;
  std::size_t col_stride;
};

View AsIs(const Matrix& x) { return {x.data(), x.cols(), 1}; }
View TransposeView(const Matrix& x) { return {x.data(), 1, x.cols()}; }

// The B operand as the shards read it: columns [0, packed_from) in place,
// the rest from `packed`, a copy laid out panel by panel. Each panel holds
// `wide` (2nr, the one-row tile's width) columns over all k steps, step
// after step, so a microkernel streams its sliver from contiguous memory;
// the last panel is zero-padded.
struct PackedB {
  std::size_t packed_from = 0;
  std::size_t wide = 0;
  std::unique_ptr<double[]> packed;

  // The sliver at column j0 and depth p0 (j0 >= packed_from), as the
  // microkernels read it: rows `wide` apart.
  const double* Sliver(std::size_t k, std::size_t p0, std::size_t j0) const {
    const std::size_t j = j0 - packed_from;
    return packed.get() + (j / wide * k + p0) * wide + j % wide;
  }
};

// Packs the B slivers the shards cannot read in place, once per call: the
// whole of a transposed B (its columns are strided), else only the ragged
// right edge past the last whole 2nr-wide sliver.
PackedB PackB(const KernelSet& set, std::size_t k, std::size_t n, View b) {
  PackedB pb;
  pb.wide = 2 * set.nr;
  const std::size_t wide = pb.wide;
  pb.packed_from = b.col_stride == 1 ? n / wide * wide : 0;
  const std::size_t panels = (n - pb.packed_from + wide - 1) / wide;
  if (panels == 0) return pb;
  pb.packed = std::make_unique_for_overwrite<double[]>(panels * k * wide);
  parallel::ParallelFor(
      panels, RowGrain(k * wide), [&](std::size_t q0, std::size_t q1) {
        for (std::size_t q = q0; q < q1; ++q) {
          const std::size_t j0 = pb.packed_from + q * wide;
          const std::size_t cols = std::min(wide, n - j0);
          double* dst = pb.packed.get() + q * k * wide;
          if (cols < wide) {
            for (std::size_t p = 0; p < k; ++p) {
              std::fill(dst + p * wide + cols, dst + (p + 1) * wide, 0.0);
            }
          }
          if (b.col_stride == 1) {
            for (std::size_t p = 0; p < k; ++p) {
              std::copy_n(b.data + p * b.row_stride + j0, cols,
                          dst + p * wide);
            }
          } else {
            // Column j of a transposed B is row j of the stored matrix.
            set.transpose(b.data + j0 * b.col_stride, b.col_stride, cols, k,
                          dst, wide);
          }
        }
      });
  return pb;
}

// C (m x n, row-major, leading dimension n) += alpha · op(A) · op(B), where
// op(A) is m x k and op(B) is k x n. Each C element receives
// c ← c + fl(fl(alpha·a(i,p))·b(p,j)) for p = 0, 1, ..., k-1 — the naive
// ascending-p loop — so the result is bit-identical at any tiling, shard
// layout, thread count or kernel set. Each shard packs its rows of A into
// mr-row panels with alpha folded in, one kKc-step depth block at a time;
// B is read in place or from the copy PackB made before the shards start.
void GemmCore(std::size_t m, std::size_t n, std::size_t k, double alpha,
              View a, View b, double* c) {
  if (m == 0 || n == 0 || k == 0) return;
  const KernelSet& set = ActiveSet();
  const std::size_t mr = set.mr;
  const PackedB pb = PackB(set, k, n, b);
  // The packer for A's layout: (r, p) is at src[r * ld + p] or
  // src[p * ld + r].
  const bool a_rows = a.col_stride == 1;
  const PackFn pack = a_rows ? set.pack_rows : set.pack_cols;
  const std::size_t lda = a_rows ? a.row_stride : a.col_stride;
  // Fewest rows per shard: enough row panels to reuse each B sliver.
  std::size_t grain = std::max(11 * mr, RowGrain(k * n));
  grain = (grain + mr - 1) / mr * mr;
  parallel::ParallelFor(m, grain, [&](std::size_t i0, std::size_t i1) {
    const std::size_t rows = i1 - i0;
    const std::size_t width = rows == 1 ? 2 * set.nr : set.nr;
    const std::size_t copies = set.a_copies;
    std::vector<double> a_pack(copies * rows * std::min(k, kKc));
    double c_edge[kMaxTile] = {};
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      pack(a.data + (a_rows ? i0 * lda + p0 : p0 * lda + i0), lda, rows, kc,
           alpha, a_pack.data());
      for (std::size_t j0 = 0; j0 < n; j0 += width) {
        const std::size_t nr = std::min(width, n - j0);
        const bool in_place = j0 < pb.packed_from;
        const double* bp = in_place ? b.data + p0 * b.row_stride + j0
                                    : pb.Sliver(k, p0, j0);
        const std::size_t ldb = in_place ? b.row_stride : pb.wide;
        for (std::size_t ir = 0; ir < rows; ir += mr) {
          const std::size_t pr = std::min(mr, rows - ir);
          const MicroKernelFn kernel = rows == 1 ? set.row : set.panel[pr];
          const double* ap = a_pack.data() + copies * ir * kc;
          double* tile = c + (i0 + ir) * n + j0;
          if (nr == width) {
            kernel(kc, ap, bp, ldb, tile, n);
            continue;
          }
          // Right edge: run the full-width kernel on a copy of the tile
          // (the zero padding of packed B feeds only columns never copied
          // out).
          for (std::size_t r = 0; r < pr; ++r) {
            for (std::size_t j = 0; j < width; ++j) {
              c_edge[r * width + j] = j < nr ? tile[r * n + j] : 0.0;
            }
          }
          kernel(kc, ap, bp, ldb, c_edge, width);
          for (std::size_t r = 0; r < pr; ++r) {
            std::copy_n(c_edge + r * width, nr, tile + r * n);
          }
        }
      }
    }
  });
}
}  // namespace

std::string_view GemmKernelName() { return ActiveSet().name; }

namespace internal {

std::vector<std::string_view> SupportedGemmKernels() {
  std::vector<std::string_view> names;
  for (const KernelSet* set : SupportedSets()) names.push_back(set->name);
  return names;
}

ScopedGemmKernel::ScopedGemmKernel(std::string_view name) {
  const std::vector<const KernelSet*>& sets = SupportedSets();
  const auto it = std::find_if(sets.begin(), sets.end(), [&](const auto* s) {
    return s->name == name;
  });
  MCIRBM_CHECK(it != sets.end()) << "GEMM kernel set '" << name
                                 << "' is not supported on this CPU";
  MCIRBM_CHECK(g_scoped_set.exchange(*it) == nullptr)
      << "ScopedGemmKernel scopes must not overlap";
}

ScopedGemmKernel::~ScopedGemmKernel() { g_scoped_set.store(nullptr); }

}  // namespace internal

void Gemm(const Matrix& a, const Matrix& b, Matrix* c) {
  MCIRBM_CHECK_EQ(a.cols(), b.rows()) << "Gemm shape mismatch";
  MCIRBM_CHECK(c != &a && c != &b) << "Gemm output aliases an operand";
  c->Resize(a.rows(), b.cols());
  GemmCore(a.rows(), b.cols(), a.cols(), 1.0, AsIs(a), AsIs(b), c->data());
}

Matrix Gemm(const Matrix& a, const Matrix& b) {
  Matrix c;
  Gemm(a, b, &c);
  return c;
}

Matrix GemmTransA(const Matrix& a, const Matrix& b) {
  MCIRBM_CHECK_EQ(a.rows(), b.rows()) << "GemmTransA shape mismatch";
  Matrix c(a.cols(), b.cols());
  GemmCore(a.cols(), b.cols(), a.rows(), 1.0, TransposeView(a), AsIs(b),
           c.data());
  return c;
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c) {
  MCIRBM_CHECK_EQ(a.cols(), b.cols()) << "GemmTransB shape mismatch";
  MCIRBM_CHECK(c != &a && c != &b) << "GemmTransB output aliases an operand";
  c->Resize(a.rows(), b.rows());
  GemmCore(a.rows(), b.rows(), a.cols(), 1.0, AsIs(a), TransposeView(b),
           c->data());
}

Matrix GemmTransB(const Matrix& a, const Matrix& b) {
  Matrix c;
  GemmTransB(a, b, &c);
  return c;
}

void AccumulateGemmTransA(double alpha, const Matrix& a, const Matrix& b,
                          Matrix* out) {
  MCIRBM_CHECK_EQ(a.rows(), b.rows());
  MCIRBM_CHECK(out->rows() == a.cols() && out->cols() == b.cols());
  GemmCore(a.cols(), b.cols(), a.rows(), alpha, TransposeView(a), AsIs(b),
           out->data());
}

void AddRowVector(Matrix* m, const std::vector<double>& v) {
  MCIRBM_CHECK_EQ(m->cols(), v.size());
  const std::size_t cols = m->cols();
  parallel::ParallelFor(
      m->rows(), RowGrain(cols), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          double* row = m->data() + i * cols;
          for (std::size_t j = 0; j < cols; ++j) row[j] += v[j];
        }
      });
}

std::vector<double> ColSums(const Matrix& m) {
  // Partitioned by *column*: each shard owns a slice of whole 8-column
  // (64-byte) groups and walks the rows in order, so every s[j]
  // accumulates in exactly the serial order. A slice sums into a local
  // array, kChunk columns at a time, and stores each sum once.
  constexpr std::size_t kChunk = 256;
  const std::size_t rows = m.rows(), cols = m.cols();
  std::vector<double> s(cols);
  const std::size_t grain = (RowGrain(rows) + 7) / 8 * 8;
  parallel::ParallelFor(cols, grain, [&](std::size_t j0, std::size_t j1) {
    for (std::size_t c0 = j0; c0 < j1; c0 += kChunk) {
      const std::size_t width = std::min(kChunk, j1 - c0);
      double acc[kChunk];
      std::fill_n(acc, width, 0.0);
      for (std::size_t i = 0; i < rows; ++i) {
        const double* row = m.data() + i * cols + c0;
        for (std::size_t j = 0; j < width; ++j) acc[j] += row[j];
      }
      std::copy_n(acc, width, s.data() + c0);
    }
  });
  return s;
}

std::vector<double> ColMeans(const Matrix& m) {
  MCIRBM_CHECK_GT(m.rows(), 0u);
  std::vector<double> s = ColSums(m);
  for (double& v : s) v /= static_cast<double>(m.rows());
  return s;
}

std::vector<double> RowSums(const Matrix& m) {
  std::vector<double> s(m.rows(), 0.0);
  const std::size_t cols = m.cols();
  parallel::ParallelFor(
      m.rows(), RowGrain(cols), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const double* row = m.data() + i * cols;
          double acc = 0;
          for (std::size_t j = 0; j < cols; ++j) acc += row[j];
          s[i] = acc;
        }
      });
  return s;
}

void Apply(Matrix* m, const std::function<double(double)>& f) {
  double* p = m->data();
  const std::size_t n = m->size();
  parallel::ParallelFor(n, RowGrain(4), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) p[i] = f(p[i]);
  });
}

double Sigmoid(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

void SigmoidInPlace(Matrix* m) {
  double* p = m->data();
  const std::size_t n = m->size();
  parallel::ParallelFor(n, RowGrain(8), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) p[i] = Sigmoid(p[i]);
  });
}

Matrix SigmoidDeriv(const Matrix& a) {
  Matrix d(a.rows(), a.cols());
  const double* src = a.data();
  double* dst = d.data();
  parallel::ParallelFor(
      a.size(), RowGrain(4), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) dst[i] = src[i] * (1 - src[i]);
      });
  return d;
}

double SquaredDistance(std::span<const double> a,
                       std::span<const double> b) {
  MCIRBM_DCHECK(a.size() == b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void SquaredDistances(const Matrix& x, std::size_t begin, std::size_t end,
                      const double* centers, std::size_t k, double* out) {
  MCIRBM_DCHECK(begin <= end && end <= x.rows());
  if (begin == end) return;
  ActiveSet().distances(x.data() + begin * x.cols(), end - begin, x.cols(),
                        centers, k, out);
}

Matrix PairwiseSquaredDistances(const Matrix& m) {
  const std::size_t n = m.rows();
  Matrix gram = GemmTransB(m, m);  // n x n
  std::vector<double> sq(n);
  for (std::size_t i = 0; i < n; ++i) sq[i] = gram(i, i);
  Matrix d(n, n);
  // Full-row expansion (rather than mirrored upper-triangle writes) keeps
  // every element owned by exactly one row shard; the symmetric formula
  // yields the identical value for (i,j) and (j,i).
  parallel::ParallelFor(n, RowGrain(n), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      double* drow = d.data() + i * n;
      const double* grow = gram.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        double v = sq[i] + sq[j] - 2.0 * grow[j];
        if (v < 0) v = 0;  // numeric guard
        drow[j] = v;
      }
      drow[i] = 0.0;
    }
  });
  return d;
}

double Dot(std::span<const double> a, std::span<const double> b) {
  MCIRBM_DCHECK(a.size() == b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace mcirbm::linalg
