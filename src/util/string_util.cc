#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mcirbm {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string Trim(const std::string& s) { return std::string(TrimView(s)); }

std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void AppendRoundTripDouble(double v, std::string* out) {
  // to_chars in general format at a given precision is specified as
  // printf's %.*g in the C locale; 32 bytes hold the longest such form
  // ("-2.2250738585072014e-308" is 24).
  char buf[32];
  const std::to_chars_result result = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out->append(buf, result.ptr);
}

std::string PadLeft(const std::string& s, int w) {
  if (static_cast<int>(s.size()) >= w) return s;
  return std::string(w - s.size(), ' ') + s;
}

std::string PadRight(const std::string& s, int w) {
  if (static_cast<int>(s.size()) >= w) return s;
  return s + std::string(w - s.size(), ' ');
}

bool ParseDouble(const std::string& s, double* out) {
  const std::string t = Trim(s);
  if (t.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size()) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& s, int* out) {
  const std::string t = Trim(s);
  if (t.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(t.c_str(), &end, 10);
  if (end != t.c_str() + t.size()) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseUint64(const std::string& s, std::uint64_t* out) {
  const std::string t = Trim(s);
  // strtoull silently negates "-1" instead of failing; reject any sign
  // (a '+' would also survive round-tripping oddly) up front.
  if (t.empty() || t[0] == '-' || t[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
  if (end != t.c_str() + t.size() || errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed for " + path);
  return buffer.str();
}

}  // namespace mcirbm
