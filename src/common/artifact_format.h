// Byte-stable artifact formatting shared by every CSV/JSON writer whose
// output is golden-gated (the sweep engine, the fleet simulator), and the
// checked file writer they all go through.
//
// The determinism contract across the repository is *byte* identity — a
// parallel run must produce the same artifact bytes as a serial one, and a
// rebuilt artifact must match the committed golden. That makes double
// formatting part of the contract: the helpers here render every double as
// the shortest of %.15g/%.16g/%.17g that parses back to the exact same bit
// pattern, so values round-trip without trailing noise and the same double
// always prints the same bytes. Rendering goes through <charconv>, whose
// precision overload is defined as printf %.*g in the C locale, so the
// bytes do not depend on LC_NUMERIC.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace memdis {

/// Appends the shortest round-trip rendering of `v`: %.17g always
/// round-trips, but the shortest of %.15g/%.16g/%.17g that parses back
/// exactly is preferred, so artifacts avoid gratuitous trailing digits while
/// staying bit-exact.
inline void append_double(std::string& out, double v) {
  char buf[64];
  char* end = buf;
  for (const int prec : {15, 16, 17}) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == v) break;
  }
  out.append(buf, end);
}

/// append_double into a fresh string.
inline std::string format_double(double v) {
  std::string s;
  append_double(s, v);
  return s;
}

/// Appends the decimal rendering of an integer (the bytes `os << v` prints).
template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Appends `s` with minimal JSON string escaping (quotes, backslashes,
/// control characters); the surrounding quotes are the caller's.
inline void append_json_escaped(std::string& out, std::string_view s) {
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
}

/// Artifact writers build their rows into one string and hand it to the
/// stream whenever it passes this size, so memory stays bounded for any
/// row count.
inline constexpr std::size_t kArtifactChunkBytes = 64 * 1024;

/// Writes `buf` to `os` and clears it once it holds at least `min_bytes`;
/// `min_bytes = 0` flushes whatever is left.
inline void flush_artifact_chunk(std::ostream& os, std::string& buf,
                                 std::size_t min_bytes = kArtifactChunkBytes) {
  if (buf.empty() || buf.size() < min_bytes) return;
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  buf.clear();
}

/// Writes an artifact file: hands a stream to `write`, then closes it and
/// checks it, so a short write (full disk, I/O error) throws instead of
/// leaving a silently truncated artifact behind.
///
/// A regular file (or a path that does not exist yet) is replaced
/// atomically: the bytes go to `path + ".tmp"` in the same directory, which
/// is renamed over `path` only after a clean close. On any failure —
/// including an exception from `write` — the temp file is removed and the
/// error rethrown, so a previous artifact survives intact and no partial
/// file appears under the final name. Anything else (a device, a FIFO, a
/// symlink such as /dev/stdout) is written in place: renaming over it
/// would replace the device node or the link itself.
template <typename Write>
void write_artifact_file(const std::string& path, Write&& write) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_type type = fs::symlink_status(path, ec).type();
  const bool replace = type == fs::file_type::not_found || type == fs::file_type::regular;
  const std::string target = replace ? path + ".tmp" : path;
  try {
    std::ofstream out(target);
    if (!out) throw std::runtime_error("cannot open " + path + " for writing");
    write(out);
    out.close();
    if (!out) throw std::runtime_error("failed writing " + path);
    if (replace) fs::rename(target, path);
  } catch (...) {
    if (replace) fs::remove(target, ec);
    throw;
  }
}

}  // namespace memdis
