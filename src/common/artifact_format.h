// Byte-stable artifact formatting shared by every CSV/JSON writer whose
// output is golden-gated (the sweep engine, the fleet simulator), and the
// checked file writer they all go through.
//
// The determinism contract across the repository is *byte* identity — a
// parallel run must produce the same artifact bytes as a serial one, and a
// rebuilt artifact must match the committed golden. That makes double
// formatting part of the contract: the helpers here render every double as
// the shortest of %.15g/%.16g/%.17g that strtod's back to the exact same
// bit pattern, so values round-trip without trailing noise and the same
// double always prints the same bytes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

namespace memdis {

/// Shortest round-trip rendering of `v`: %.17g always round-trips, but
/// prefers the shortest of %.15g/%.16g/%.17g that parses back exactly, so
/// artifacts avoid gratuitous trailing digits while staying bit-exact.
inline std::string format_double(double v) {
  char buf[64];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Writes an artifact file: opens `path`, hands the stream to `write`, then
/// closes it and checks the stream, so a short write (full disk, I/O error)
/// throws instead of leaving a silently truncated artifact behind.
template <typename Write>
void write_artifact_file(const std::string& path, Write&& write) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write(out);
  out.close();
  if (!out) throw std::runtime_error("failed writing " + path);
}

}  // namespace memdis
