// Byte-stable artifact formatting shared by every CSV/JSON writer whose
// output is golden-gated (the sweep engine, the fleet simulator), and the
// checked file writer they all go through.
//
// The determinism contract across the repository is *byte* identity — a
// parallel run must produce the same artifact bytes as a serial one, and a
// rebuilt artifact must match the committed golden. That makes double
// formatting part of the contract. The artifact bytes of a double are
// *defined* as the shortest of %.15g/%.16g/%.17g that parses back to the
// exact same bit pattern, so values round-trip without trailing noise and
// the same double always prints the same bytes.
//
// append_double produces those bytes from one shortest round-trip
// conversion, `std::to_chars(v, chars_format::scientific)` (closest of the
// shortest digit strings), which yields k significant digits and a
// decimal exponent X. It then lays out the %.Pg bytes by hand with
// P = max(15, k): fixed notation when -4 <= X < P, else d.ddde±XX with at
// least two exponent digits, never with trailing zeros. For a normal
// double those are the search's bytes:
//   * k <= 15: a step of the 15-digit grid is over 4x the width of the
//     double's rounding interval (at most one ulp), so the one 15-digit
//     string inside the interval is the closest to v: %.15g prints the
//     shortest digits and round-trips.
//   * k = 16: %.15g cannot round-trip (k would be <= 15), and the closest
//     16-digit string lies inside the symmetric rounding interval whenever
//     any 16-digit string does, so %.16g prints the shortest digits.
//   * k = 17: %.17g always round-trips and is the closest 17-digit string.
// Two cases keep the search loop as the fallback. Non-normal values (±0,
// subnormals, ±inf, nan): a subnormal has fewer significant bits, so the
// grid argument fails (5e-324 is shortest, %.15g prints
// 4.94065645841247e-324 and round-trips). 16-digit exact powers of two: the
// rounding interval is asymmetric (half as wide below v), so the closest
// 16-digit string can miss it while another one hits it. 2^-1017 is
// shortest as 7.120236347223045e-307, but %.16g does not round-trip and the
// artifact prints 7.1202363472230444e-307.
//
// Both paths go through <charconv>, whose precision overload is defined as
// printf %.*g in the C locale, so the bytes do not depend on LC_NUMERIC.
#pragma once

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace memdis {

namespace detail {

/// The defining search: the shortest of %.15g/%.16g/%.17g that parses back
/// exactly. Returns the end of the bytes written to `buf` (>= 32 chars).
inline char* format_double_by_search(char* buf, std::size_t size, double v) {
  char* end = buf;
  for (const int prec : {15, 16, 17}) {
    end = std::to_chars(buf, buf + size, v, std::chars_format::general, prec).ptr;
    double back = 0.0;
    if (std::from_chars(buf, end, back).ec == std::errc() && back == v) break;
  }
  return end;
}

/// The search's bytes from one shortest conversion, laid out as %.Pg with
/// P = max(15, k) (header comment). Returns the end of the bytes written to
/// `buf` (>= 32 chars), or nullptr for the values the search must handle:
/// non-normal ones and 16-digit exact powers of two.
inline char* format_double_shortest(char* buf, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased_exponent = static_cast<unsigned>(bits >> 52) & 0x7ffU;
  if (biased_exponent == 0 || biased_exponent == 0x7ff) return nullptr;
  // [-]d[.ddd]e±XX[X]: k <= 17 significant digits, decimal exponent X.
  char sci[32];
  const char* const sci_end =
      std::to_chars(sci, sci + sizeof(sci), v, std::chars_format::scientific).ptr;
  const char* const lead = sci + (v < 0.0);
  const char* const e = sci_end[-4] == 'e' ? sci_end - 4 : sci_end - 5;
  const char* const rest = e == lead + 1 ? e : lead + 2;  // digits after the point
  const int k = static_cast<int>(e - rest) + 1;
  const bool power_of_two = (bits & ((std::uint64_t{1} << 52) - 1)) == 0;
  if (k == 16 && power_of_two) return nullptr;
  int x = 0;
  for (const char* p = e + 2; p != sci_end; ++p) x = x * 10 + (*p - '0');
  if (e[1] == '-') x = -x;

  char* o = buf;
  if (v < 0.0) *o++ = '-';
  if (x < -4 || x >= std::max(k, 15)) return std::copy(lead, sci_end, o);  // %g's d.ddde±XX
  if (x < 0) {  // 0.000ddd
    std::memcpy(o, "0.000", static_cast<std::size_t>(1 - x));
    o += 1 - x;
    *o++ = *lead;
    return std::copy(rest, e, o);
  }
  *o++ = *lead;
  if (k <= x + 1) return std::fill_n(std::copy(rest, e, o), x + 1 - k, '0');  // an integer
  o = std::copy(rest, rest + x, o);
  *o++ = '.';
  return std::copy(rest + x, e, o);
}

}  // namespace detail

/// Appends the artifact rendering of `v`: the shortest of %.15g/%.16g/%.17g
/// that round-trips, so artifacts avoid gratuitous trailing digits while
/// staying bit-exact. One shortest conversion does the work; the search
/// runs only where the header comment says it must.
inline void append_double(std::string& out, double v) {
  char buf[64];
  char* end = detail::format_double_shortest(buf, v);
  if (end == nullptr) end = detail::format_double_by_search(buf, sizeof(buf), v);
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
