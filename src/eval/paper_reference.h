// The paper's reported numbers (Tables IV-IX), embedded so every bench
// binary can print measured values side by side with the reference.
#ifndef MCIRBM_EVAL_PAPER_REFERENCE_H_
#define MCIRBM_EVAL_PAPER_REFERENCE_H_

#include <string>
#include <vector>

#include "eval/experiment.h"

namespace mcirbm::eval {

/// Identifies one of the paper's result tables.
enum class PaperTable {
  kTable4AccuracyMsra,   ///< accuracy, datasets I  (also Fig. 2)
  kTable5PurityMsra,     ///< purity,   datasets I  (also Fig. 3)
  kTable6FmiMsra,        ///< FMI,      datasets I  (also Fig. 4)
  kTable7AccuracyUci,    ///< accuracy, datasets II (also Fig. 6)
  kTable8RandUci,        ///< Rand,     datasets II (also Fig. 7)
  kTable9FmiUci,         ///< FMI,      datasets II (also Fig. 8)
};

/// "accuracy" / "purity" / "rand" / "fmi" for the given table.
std::string PaperTableMetric(PaperTable table);

/// Human title, e.g. "Table IV — accuracy (datasets I)".
std::string PaperTableTitle(PaperTable table);

/// Whether the table belongs to datasets I (GRBM family).
bool PaperTableIsGrbmFamily(PaperTable table);

/// Number of dataset rows (9 for datasets I, 6 for datasets II).
int PaperTableRows(PaperTable table);

/// The paper's value for (dataset row, variant, clusterer).
/// `row` is 0-based dataset index in table order.
double PaperValue(PaperTable table, int row, Variant variant,
                  ClustererKind clusterer);

/// The paper's column average (bottom "Average" row).
double PaperAverage(PaperTable table, Variant variant,
                    ClustererKind clusterer);

/// Dataset short names in table order ("BO", ..., "VT" / "HS", ..., "IR").
const std::vector<std::string>& PaperTableDatasetNames(PaperTable table);

}  // namespace mcirbm::eval

#endif  // MCIRBM_EVAL_PAPER_REFERENCE_H_
