#include "util/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>

#include "util/string_util.h"

namespace mcirbm {

namespace {

// Strips one pair of surrounding double quotes ("f0" -> f0). Quotes must
// enclose the whole trimmed cell; embedded commas are not supported.
std::string_view UnquoteCell(std::string_view cell) {
  if (cell.size() >= 2 && cell.front() == '"' && cell.back() == '"') {
    return cell.substr(1, cell.size() - 2);
  }
  return cell;
}

// Calls fn(cell) on each comma-separated cell of `line`, in order, until
// it returns false; returns whether every call returned true.
template <typename Fn>
bool ForEachCell(std::string_view line, Fn fn) {
  for (;;) {
    const std::size_t comma = line.find(',');
    if (!fn(line.substr(0, comma))) return false;
    if (comma == std::string_view::npos) return true;
    line.remove_prefix(comma + 1);
  }
}

// Reads one cell. std::from_chars takes the common case without building
// a string. A cell it does not consume whole into a finite value (a
// leading '+', hex, blanks inside quotes, a value out of range, inf, nan,
// garbage) goes to ParseDouble's strtod, so the cells accepted and every
// bit read are strtod's.
bool ParseCell(std::string_view cell, double* out) {
  cell = UnquoteCell(TrimView(cell));
  double v = 0;
  const char* end = cell.data() + cell.size();
  const std::from_chars_result result = std::from_chars(cell.data(), end, v);
  if (result.ec == std::errc() && result.ptr == end && std::isfinite(v)) {
    *out = v;
    return true;
  }
  return ParseDouble(std::string(cell), out);
}

}  // namespace

Status ScanCsv(
    const std::string& path, bool has_header,
    std::vector<std::string>* header,
    const std::function<Status(std::size_t lineno,
                               const std::vector<double>& row)>& on_row) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string line;
  std::size_t lineno = 0;
  std::size_t width = 0;
  bool header_pending = has_header;
  std::vector<double> row;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view text = line;
    if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
    if (TrimView(text).empty()) continue;
    // The width is checked before any cell is parsed, so a row that is
    // both short and non-numeric reports as ragged.
    const std::size_t cells =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), ',')) +
        1;
    if (header_pending) {
      header_pending = false;
      if (header != nullptr) {
        ForEachCell(text, [header](std::string_view cell) {
          header->emplace_back(UnquoteCell(TrimView(cell)));
          return true;
        });
      }
      width = cells;
      continue;
    }
    if (width == 0) width = cells;
    if (cells != width) {
      return Status::ParseError(path + ":" + std::to_string(lineno) +
                                ": ragged row");
    }
    row.clear();
    std::string_view bad;
    const bool numeric = ForEachCell(text, [&](std::string_view cell) {
      double v = 0;
      if (!ParseCell(cell, &v)) {
        bad = cell;
        return false;
      }
      row.push_back(v);
      return true;
    });
    if (!numeric) {
      return Status::ParseError(path + ":" + std::to_string(lineno) +
                                ": non-numeric cell '" + std::string(bad) +
                                "'");
    }
    const Status status = on_row(lineno, row);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

StatusOr<CsvTable> ReadCsv(const std::string& path, bool has_header) {
  CsvTable table;
  const Status status = ScanCsv(
      path, has_header, &table.header,
      [&table](std::size_t /*lineno*/, const std::vector<double>& row) {
        table.rows.push_back(row);
        return Status::Ok();
      });
  if (!status.ok()) return status;
  return table;
}

Status CsvWriter::Open(const std::string& path,
                       const std::vector<std::string>& header) {
  path_ = path;
  out_.open(path);
  if (!out_) return Status::IoError("cannot open " + path + " for writing");
  if (!header.empty()) out_ << Join(header, ",") << "\n";
  return Status::Ok();
}

Status CsvWriter::WriteRow(std::span<const double> row) {
  line_.clear();
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line_.push_back(',');
    AppendRoundTripDouble(row[i], &line_);
  }
  line_.push_back('\n');
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  if (!out_) return Status::IoError("write failed for " + path_);
  return Status::Ok();
}

Status CsvWriter::Close() {
  if (out_.is_open()) {
    out_.flush();
    if (!out_) return Status::IoError("write failed for " + path_);
    out_.close();
  }
  return Status::Ok();
}

Status WriteCsv(const std::string& path,
                const std::vector<std::string>& header,
                const std::vector<std::vector<double>>& rows) {
  CsvWriter writer;
  Status status = writer.Open(path, header);
  if (!status.ok()) return status;
  for (const auto& row : rows) {
    status = writer.WriteRow(row);
    if (!status.ok()) return status;
  }
  return writer.Close();
}

}  // namespace mcirbm
