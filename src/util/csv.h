// Minimal CSV reading/writing for numeric tables (datasets, features).
//
// Parsing rules shared by every entry point: lines end in LF or CRLF,
// blank lines (including a trailing one) are skipped, and any cell may be
// wrapped in double quotes (stripped after trimming; embedded commas are
// not supported). Ragged rows and non-numeric cells fail with kParseError
// naming `path:lineno`. A cell is read by std::from_chars, falling back to
// strtod for anything from_chars does not read whole into a finite value,
// so the cells accepted and the bits read are strtod's. Writers format
// every double as printf("%.17g") does (AppendRoundTripDouble).
#ifndef MCIRBM_UTIL_CSV_H_
#define MCIRBM_UTIL_CSV_H_

#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace mcirbm {

/// A parsed numeric CSV: optional header plus a dense row-major table.
struct CsvTable {
  std::vector<std::string> header;       ///< empty if has_header was false
  std::vector<std::vector<double>> rows; ///< all rows have equal width
};

/// Streams a numeric CSV without materializing it: `on_row` is invoked once
/// per data row with its 1-based line number; a non-OK return aborts the
/// scan and propagates. If `has_header`, the first non-blank line is
/// delivered through `header` (ignored when null) instead of `on_row`.
Status ScanCsv(
    const std::string& path, bool has_header,
    std::vector<std::string>* header,
    const std::function<Status(std::size_t lineno,
                               const std::vector<double>& row)>& on_row);

/// Reads a numeric CSV file. If `has_header`, the first line is kept as
/// column names. Fails with kParseError on ragged rows or non-numeric cells.
StatusOr<CsvTable> ReadCsv(const std::string& path, bool has_header);

/// Streaming CSV row sink. Writes the exact same bytes as WriteCsv
/// (%.17g doubles, '\n' line ends), so chunked exports are byte-identical
/// to materialized ones.
class CsvWriter {
 public:
  CsvWriter() = default;
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Opens `path` and writes the header line (skipped when empty).
  Status Open(const std::string& path,
              const std::vector<std::string>& header);

  /// Appends one data row.
  Status WriteRow(std::span<const double> row);

  /// Flushes and reports any deferred write error. Idempotent.
  Status Close();

 private:
  std::ofstream out_;
  std::string path_;
  std::string line_;  ///< one formatted row, reused across WriteRow calls
};

/// Writes a numeric CSV file; `header` may be empty to omit the header line.
Status WriteCsv(const std::string& path,
                const std::vector<std::string>& header,
                const std::vector<std::vector<double>>& rows);

}  // namespace mcirbm

#endif  // MCIRBM_UTIL_CSV_H_
