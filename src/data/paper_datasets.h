// Registry of the paper's evaluation datasets (Tables II and III),
// realized as calibrated synthetic equivalents.
//
// Datasets I — MSRA-MM 2.0 image-feature sets (9 sets, 3 classes,
//   ~800-930 instances x 892/899 real-valued dims, heavy class imbalance:
//   web image "relevance level" classes). Consumed by slsGRBM.
// Datasets II — UCI sets (6 sets, mostly binary classes). Consumed by
//   slsRBM after binarization.
#ifndef MCIRBM_DATA_PAPER_DATASETS_H_
#define MCIRBM_DATA_PAPER_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"

namespace mcirbm::data {

/// Identifier and shape of one paper dataset plus its difficulty profile.
struct PaperDatasetInfo {
  std::string short_name;  ///< e.g. "BO"
  std::string full_name;   ///< e.g. "Book"
  int number = 0;          ///< 1-based index as used on figure X axes
  int classes = 0;
  int instances = 0;
  int features = 0;
};

/// Number of MSRA-MM-like sets (Table II).
int NumMsraDatasets();

/// Number of UCI-like sets (Table III).
int NumUciDatasets();

/// Shape metadata for MSRA set `index` in [0, NumMsraDatasets()).
const PaperDatasetInfo& MsraDatasetInfo(int index);

/// Shape metadata for UCI set `index` in [0, NumUciDatasets()).
const PaperDatasetInfo& UciDatasetInfo(int index);

/// Generates MSRA-MM-like dataset `index` (Table II row `index`+1).
/// Real-valued features; feed to GRBM-family models after standardization.
Dataset GenerateMsraLike(int index, std::uint64_t seed);

/// Generates UCI-like dataset `index` (Table III row `index`+1).
/// Real-valued features; binarize (BinarizeAtColumnMeanInPlace) before
/// feeding to binary RBM-family models.
Dataset GenerateUciLike(int index, std::uint64_t seed);

/// The full GaussianMixtureSpec used for MSRA set `index` (exposed so
/// calibration tests and ablations can perturb single knobs).
GaussianMixtureSpec MsraSpec(int index);

/// The full GaussianMixtureSpec used for UCI set `index`.
GaussianMixtureSpec UciSpec(int index);

}  // namespace mcirbm::data

#endif  // MCIRBM_DATA_PAPER_DATASETS_H_
