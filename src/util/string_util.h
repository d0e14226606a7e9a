// Small string helpers shared by CSV parsing and table rendering.
#ifndef MCIRBM_UTIL_STRING_UTIL_H_
#define MCIRBM_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace mcirbm {

/// Splits `s` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(const std::string& s, char delim);

/// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& delim);

/// Strips ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// Trim without a copy: the view of `s` between its end blanks.
std::string_view TrimView(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double v, int digits);

/// Appends `v` to `out` in the bytes printf("%.17g") writes for it:
/// 17 significant digits, enough to read every double back exactly, and
/// "inf", "-inf", "nan", "-nan" for the non-finite values. The CSV and
/// model writers format every double through it.
void AppendRoundTripDouble(double v, std::string* out);

/// Left-pads (or passes through) `s` to width `w` with spaces.
std::string PadLeft(const std::string& s, int w);

/// Right-pads (or passes through) `s` to width `w` with spaces.
std::string PadRight(const std::string& s, int w);

/// Parses a double; returns false on any trailing garbage or empty input.
bool ParseDouble(const std::string& s, double* out);

/// Parses an int; returns false on any trailing garbage or empty input.
bool ParseInt(const std::string& s, int* out);

/// Parses an unsigned 64-bit integer; returns false on empty input,
/// trailing garbage, a leading '-', or a value above 2^64 - 1.
bool ParseUint64(const std::string& s, std::uint64_t* out);

/// Reads an entire text file; IoError when it cannot be opened or read.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace mcirbm

#endif  // MCIRBM_UTIL_STRING_UTIL_H_
