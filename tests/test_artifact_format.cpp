// Direct tests for the byte-stable artifact formatting helpers
// (common/artifact_format.h, common/csv.h). These back the repository-wide
// byte-identity contract: the same double must always render the same
// bytes, and those bytes must strtod back to the exact bit pattern.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/artifact_format.h"
#include "common/csv.h"
#include "common/rng.h"
#include "core/sweep.h"
#include "fleet/fleet.h"
#include "workloads/workload.h"

namespace memdis {
namespace {

namespace fs = std::filesystem;

double parse_back(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

// The snprintf/strtod formatter the artifacts were first defined by, kept
// as the differential oracle for the <charconv> one: shortest of
// %.15g/%.16g/%.17g that strtod's back to the same value.
std::string reference_format_double(double v) {
  char buf[64];
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Byte-compares format_double and append_double (onto a non-empty prefix)
// against the oracle; returns the number of mismatches, reporting the
// first few.
int oracle_mismatches(const std::vector<double>& values) {
  int mismatches = 0;
  std::string appended = "x";
  for (const double v : values) {
    const std::string want = reference_format_double(v);
    appended.resize(1);
    append_double(appended, v);
    const bool ok = format_double(v) == want && appended.compare(1, std::string::npos, want) == 0;
    if (!ok && ++mismatches <= 5) {
      ADD_FAILURE() << "oracle prints '" << want << "', format_double prints '"
                    << format_double(v) << "', append_double appends '" << appended.substr(1)
                    << "'";
    }
  }
  return mismatches;
}

bool bits_equal(double a, double b) {
  std::uint64_t ab = 0;
  std::uint64_t bb = 0;
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

TEST(FormatDouble, RoundTripsExactValuesTersely) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(-3.25), "-3.25");
  EXPECT_EQ(format_double(1e300), "1e+300");
}

TEST(FormatDouble, RoundTripsValuesNeedingAllSeventeenDigits) {
  // 0.1 + 0.2 differs from 0.3 in the last ulp; formatting must preserve
  // the distinction, not pretty-print both as 0.3.
  const double a = 0.1 + 0.2;
  const double b = 0.3;
  ASSERT_FALSE(bits_equal(a, b));
  EXPECT_NE(format_double(a), format_double(b));
  EXPECT_TRUE(bits_equal(parse_back(format_double(a)), a));
  EXPECT_TRUE(bits_equal(parse_back(format_double(b)), b));
}

TEST(FormatDouble, NegativeZeroKeepsItsSign) {
  const std::string s = format_double(-0.0);
  EXPECT_EQ(s, "-0");
  const double back = parse_back(s);
  EXPECT_TRUE(bits_equal(back, -0.0));
  EXPECT_FALSE(bits_equal(back, 0.0));
}

TEST(FormatDouble, SubnormalsRoundTripExactly) {
  const double min_subnormal = std::numeric_limits<double>::denorm_min();
  const double max_subnormal =
      std::numeric_limits<double>::min() - std::numeric_limits<double>::denorm_min();
  const double mid_subnormal = std::numeric_limits<double>::min() / 3.0;
  for (const double v : {min_subnormal, max_subnormal, mid_subnormal, -min_subnormal,
                         -mid_subnormal}) {
    ASSERT_TRUE(std::fpclassify(v) == FP_SUBNORMAL) << v;
    const std::string s = format_double(v);
    EXPECT_TRUE(bits_equal(parse_back(s), v)) << s;
  }
}

TEST(FormatDouble, ExtremesOfTheNormalRangeRoundTrip) {
  for (const double v : {std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::min(), DBL_EPSILON,
                         -std::numeric_limits<double>::max()}) {
    EXPECT_TRUE(bits_equal(parse_back(format_double(v)), v)) << format_double(v);
  }
}

TEST(FormatDouble, RandomBitPatternsRoundTripAndRenderStably) {
  Xoshiro256 rng(2026);
  int finite = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;  // CSV/JSON artifacts only hold finite values
    ++finite;
    const std::string s = format_double(v);
    EXPECT_TRUE(bits_equal(parse_back(s), v)) << s;
    EXPECT_EQ(s, format_double(v));  // same double, same bytes, every time
  }
  EXPECT_GT(finite, 9000);
}

TEST(FormatDouble, MatchesTheSnprintfOracleOnRandomBitPatterns) {
  Xoshiro256 rng(18);
  std::vector<double> values;
  int non_finite = 0;
  for (int i = 0; i < 200000; ++i) {
    values.push_back(from_bits(rng()));
    non_finite += std::isfinite(values.back()) ? 0 : 1;
  }
  // Random patterns rarely hit the all-ones exponent; add NaNs (both
  // signs, quiet and signalling payloads) and both infinities explicitly.
  for (const std::uint64_t bits :
       {0x7ff8000000000000ULL, 0xfff8000000000000ULL, 0x7ff0000000000001ULL,
        0xfff0000000000001ULL, 0x7fffffffffffffffULL, 0x7ff0000000000000ULL,
        0xfff0000000000000ULL}) {
    values.push_back(from_bits(bits));
  }
  EXPECT_GT(non_finite, 0);
  EXPECT_EQ(oracle_mismatches(values), 0);
}

TEST(FormatDouble, MatchesTheSnprintfOracleAtTheEdges) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0,
                                -0.0,
                                limits::denorm_min(),
                                -limits::denorm_min(),
                                limits::min() - limits::denorm_min(),  // largest subnormal
                                DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                DBL_EPSILON};
  // %g switches between fixed and exponent notation at powers of ten;
  // check each one from 1e-6 to 1e18 and the doubles on either side.
  for (int e = -6; e <= 18; ++e) {
    const double p = std::stod("1e" + std::to_string(e));
    for (const double v : {std::nextafter(p, 0.0), p, std::nextafter(p, limits::infinity())}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  EXPECT_EQ(oracle_mismatches(values), 0);
}

// The one-conversion path must fall back to the search for 16-digit exact
// powers of two, whose rounding interval is half as wide below the value:
// random bit patterns (almost) never have a zero mantissa, so every normal
// power of two is compared here.
TEST(FormatDouble, MatchesTheSnprintfOracleOnEveryPowerOfTwo) {
  std::vector<double> values;
  for (int e = -1022; e <= 1023; ++e) {
    values.push_back(std::ldexp(1.0, e));
    values.push_back(-std::ldexp(1.0, e));
  }
  EXPECT_EQ(oracle_mismatches(values), 0);
  // Shortest is 7.120236347223045e-307, but %.16g of it does not round-trip.
  EXPECT_EQ(format_double(std::ldexp(1.0, -1017)), "7.1202363472230444e-307");
}

/// Significant digits of the shortest round-trip string of `v`.
int shortest_digits(double v) {
  char buf[64];
  char* const end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::scientific).ptr;
  char* const e = std::find(buf, end, 'e');
  return static_cast<int>(std::count_if(buf, e, [](char c) { return c >= '0' && c <= '9'; }));
}

// %.Pg is laid out with P = max(15, k) for a shortest string of k digits:
// cover every k in both notations and across the fixed/exponent switch,
// plus the integers around 1e15/1e16/1e17, where X meets P.
TEST(FormatDouble, MatchesTheSnprintfOracleAtEveryShortestLength) {
  Xoshiro256 rng(22);
  std::vector<double> values;
  std::vector<int> seen(18, 0);
  const auto add = [&](double v) {
    ++seen[static_cast<std::size_t>(shortest_digits(v))];
    values.push_back(v);
    values.push_back(-v);
  };
  for (int k = 1; k <= 17; ++k) {
    for (const int x : {-307, -20, -6, -5, -4, -3, -1, 0, 1, 5, 13, 14, 15, 16, 17, 20, 300}) {
      for (int rep = 0; rep < 8; ++rep) {
        std::string text(1, static_cast<char>('1' + rng() % 9));
        if (k > 1) {
          text += '.';
          for (int d = 2; d < k; ++d) text += static_cast<char>('0' + rng() % 10);
          text += static_cast<char>('1' + rng() % 9);
        }
        add(std::strtod((text + "e" + std::to_string(x)).c_str(), nullptr));
      }
    }
  }
  for (const double base : {1e15, 1e16, 1e17}) {
    for (int d = -40; d <= 40; ++d) add(base + d);
    double up = base;
    double down = base;
    for (int i = 0; i < 20; ++i) {
      add(up = std::nextafter(up, std::numeric_limits<double>::infinity()));
      add(down = std::nextafter(down, 0.0));
    }
  }
  for (int k = 1; k <= 17; ++k) EXPECT_GT(seen[static_cast<std::size_t>(k)], 0) << "k=" << k;
  EXPECT_EQ(oracle_mismatches(values), 0);
}

TEST(AppendInt, MatchesStreamOutput) {
  std::string s;
  append_int(s, std::size_t{0});
  s += ',';
  append_int(s, -1);
  s += ',';
  append_int(s, std::numeric_limits<std::uint64_t>::max());
  std::ostringstream os;
  os << std::size_t{0} << ',' << -1 << ',' << std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(s, os.str());
}

std::string json_escape(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

TEST(JsonEscape, PassesPlainStringsThrough) {
  EXPECT_EQ(json_escape("fig06"), "fig06");
  EXPECT_EQ(json_escape(""), "");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape(std::string("a\nb\tc")), "a\\u000ab\\u0009c");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
}

// A full disk must surface as an error, not as a truncated artifact and
// exit 0: every artifact writer closes its stream and checks it. Writes to
// /dev/full open fine and fail with ENOSPC once the buffer is flushed.
TEST(ArtifactFile, WritersThrowOnAFullDevice) {
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "no /dev/full on this platform";
  EXPECT_THROW(write_artifact_file("/dev/full", [](std::ostream& os) { os << "x\n"; }),
               std::runtime_error);
  core::SweepResult sweep;
  sweep.scenario = "full-disk";
  EXPECT_THROW(sweep.write_csv_file("/dev/full"), std::runtime_error);
  EXPECT_THROW(sweep.write_json_file("/dev/full"), std::runtime_error);
  fleet::FleetResult fleet;
  EXPECT_THROW(fleet.write_csv_file("/dev/full"), std::runtime_error);
  EXPECT_THROW(fleet.write_json_file("/dev/full"), std::runtime_error);
  // A device is written in place, never renamed over.
  EXPECT_TRUE(std::filesystem::is_character_file("/dev/full"));
  EXPECT_FALSE(std::filesystem::exists("/dev/full.tmp"));
}

TEST(ArtifactFile, UnopenablePathThrows) {
  EXPECT_THROW(write_artifact_file("/nonexistent-dir/x.csv", [](std::ostream&) {}),
               std::runtime_error);
  EXPECT_FALSE(fs::exists("/nonexistent-dir"));
}

// ---------- atomic replace -----------------------------------------------------

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A fresh, empty directory for one test.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("memdis_artifact_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::string> entries(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

void throwing_write(std::ostream& os) {
  os << "partial row\n";
  throw std::runtime_error("writer failed mid-artifact");
}

TEST(ArtifactFile, ThrowingWriterLeavesNeitherFileNorTemp) {
  const fs::path dir = scratch_dir("throwing");
  const std::string path = (dir / "a.csv").string();
  EXPECT_THROW(write_artifact_file(path, throwing_write), std::runtime_error);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(entries(dir).empty());
}

TEST(ArtifactFile, FailedRewriteKeepsThePreviousArtifact) {
  const fs::path dir = scratch_dir("keep");
  const std::string path = (dir / "a.json").string();
  write_artifact_file(path, [](std::ostream& os) { os << "old bytes\n"; });
  EXPECT_THROW(write_artifact_file(path, throwing_write), std::runtime_error);
  EXPECT_EQ(slurp(path), "old bytes\n");
  EXPECT_EQ(entries(dir), std::vector<std::string>{"a.json"});
}

TEST(ArtifactFile, SuccessfulRewriteReplacesAndLeavesNoTemp) {
  const fs::path dir = scratch_dir("rewrite");
  const std::string path = (dir / "a.csv").string();
  write_artifact_file(path, [](std::ostream& os) { os << "first, and longer\n"; });
  write_artifact_file(path, [](std::ostream& os) { os << "second\n"; });
  EXPECT_EQ(slurp(path), "second\n");
  EXPECT_EQ(entries(dir), std::vector<std::string>{"a.csv"});
}

// Only regular files are replaced by rename: a symlink is written through
// in place, so the link itself (like /dev/stdout) survives.
TEST(ArtifactFile, SymlinkIsWrittenThroughNotReplaced) {
  const fs::path dir = scratch_dir("symlink");
  const fs::path target = dir / "target.csv";
  const fs::path link = dir / "link.csv";
  write_artifact_file(target.string(), [](std::ostream& os) { os << "old\n"; });
  fs::create_symlink(target, link);
  write_artifact_file(link.string(), [](std::ostream& os) { os << "new\n"; });
  EXPECT_TRUE(fs::is_symlink(fs::symlink_status(link)));
  EXPECT_EQ(slurp(target), "new\n");
  EXPECT_EQ(entries(dir), (std::vector<std::string>{"link.csv", "target.csv"}));
}

// ---------- CSV escaping ------------------------------------------------------

TEST(CsvField, QuotesCommaQuoteLfAndCr) {
  const auto field = [](std::string_view s) {
    std::string out;
    append_csv_field(out, s);
    return out;
  };
  EXPECT_EQ(field("plain-name"), "plain-name");
  EXPECT_EQ(field(""), "");
  EXPECT_EQ(field("a,b"), "\"a,b\"");
  EXPECT_EQ(field("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(field("a\nb"), "\"a\nb\"");
  EXPECT_EQ(field("a\rb"), "\"a\rb\"");
}

const std::vector<std::string> kHostileNames = {"a,b", "a\"b", "a\nb", "a\rb", "plain"};

// The fleet CSV through CsvWriter, cell for cell as the columns are
// documented: the reference the buffered writer must match byte for byte.
std::string fleet_csv_via_csv_writer(const fleet::FleetResult& r) {
  std::ostringstream os;
  CsvWriter csv(os, {"index", "class", "seed", "arrival_s", "start_s", "finish_s", "pool",
                     "migrations", "work_s", "wait_s", "slowdown", "status"});
  for (const auto& rec : r.jobs) {
    if (rec.rejected) {
      csv.add_row({std::to_string(rec.index), rec.job_class, std::to_string(rec.seed),
                   format_double(rec.arrival_s), "", "", "", "0", format_double(rec.work_s), "",
                   "", "rejected"});
    } else {
      csv.add_row({std::to_string(rec.index), rec.job_class, std::to_string(rec.seed),
                   format_double(rec.arrival_s), format_double(rec.start_s),
                   format_double(rec.finish_s), std::to_string(rec.pool),
                   std::to_string(rec.migrations), format_double(rec.work_s),
                   format_double(rec.wait_s()), format_double(rec.slowdown()), "done"});
    }
  }
  return os.str();
}

// Enough rows to cross several kArtifactChunkBytes flushes, every fourth
// rejected, with the hostile class names mixed in.
fleet::FleetResult synthetic_fleet(std::size_t n) {
  fleet::FleetResult r;
  Xoshiro256 rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    fleet::FleetJobRecord rec;
    rec.index = i;
    rec.job_class = kHostileNames[i % kHostileNames.size()];
    rec.seed = rng();
    rec.arrival_s = rng.uniform() * 1e4;
    rec.work_s = 1.0 + rng.uniform() * 100.0;
    rec.rejected = i % 4 == 3;
    if (!rec.rejected) {
      rec.start_s = rec.arrival_s + rng.uniform();
      rec.finish_s = rec.start_s + rec.work_s * (1.0 + rng.uniform());
      rec.pool = static_cast<int>(i % 3);
      rec.migrations = static_cast<int>(i % 2);
    }
    r.jobs.push_back(rec);
  }
  return r;
}

TEST(CsvField, FleetWriterQuotesHostileClassNames) {
  const auto r = synthetic_fleet(5);
  std::ostringstream os;
  r.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("\n0,\"a,b\","), std::string::npos);
  EXPECT_NE(csv.find("\n1,\"a\"\"b\","), std::string::npos);
  EXPECT_NE(csv.find("\n2,\"a\nb\","), std::string::npos);
  EXPECT_NE(csv.find("\n3,\"a\rb\","), std::string::npos);
  EXPECT_NE(csv.find("\n4,plain,"), std::string::npos);
}

TEST(CsvField, FleetWriterMatchesCsvWriterByteForByte) {
  const auto r = synthetic_fleet(3000);
  std::ostringstream os;
  r.write_csv(os);
  ASSERT_GT(os.str().size(), 2 * kArtifactChunkBytes);
  EXPECT_EQ(os.str(), fleet_csv_via_csv_writer(r));
}

core::SweepResult synthetic_sweep(std::size_t n) {
  core::SweepResult r;
  r.scenario = "hostile";
  for (std::size_t i = 0; i < n; ++i) {
    core::SweepRow row;
    row.point.index = i;
    row.point.app = workloads::App::kHPL;
    row.point.ratio = i % 3 == 0 ? core::kNodeOnly : 0.25 * static_cast<double>(i % 3);
    row.point.loi = static_cast<double>(i % 7) * 10.0;
    row.point.fabric = "cxl";
    row.point.prefetch = i % 2 == 0;
    row.point.variant = kHostileNames[i % kHostileNames.size()];
    row.point.seed = 1000 + i;
    // Rows carry different metric subsets (and a repeated name) so the
    // column placement sees gaps.
    row.metrics.emplace_back("runtime_s", 1.0 / static_cast<double>(i + 3));
    if (i % 2 == 0) row.metrics.emplace_back("slowdown", 1.0 + 0.1 * static_cast<double>(i));
    row.metrics.emplace_back("a,odd\"metric", static_cast<double>(i));
    if (i % 5 == 0) row.metrics.emplace_back("runtime_s", -1.0);
    r.rows.push_back(row);
  }
  return r;
}

// The sweep CSV through CsvWriter, first-match metric lookup per cell.
std::string sweep_csv_via_csv_writer(const core::SweepResult& r) {
  std::vector<std::string> header = {"index", "app",    "scale",    "ratio", "loi",
                                     "fabric", "prefetch", "variant", "seed"};
  const auto metrics = r.metric_names();
  header.insert(header.end(), metrics.begin(), metrics.end());
  std::ostringstream os;
  CsvWriter csv(os, header);
  for (const auto& row : r.rows) {
    std::vector<std::string> cells = {
        std::to_string(row.point.index), workloads::app_name(row.point.app),
        std::to_string(row.point.scale),
        row.point.ratio == core::kNodeOnly ? "local" : format_double(row.point.ratio),
        format_double(row.point.loi), row.point.fabric, row.point.prefetch ? "on" : "off",
        row.point.variant, std::to_string(row.point.seed)};
    for (const auto& name : metrics) {
      const auto it = std::find_if(row.metrics.begin(), row.metrics.end(),
                                   [&](const core::Metric& m) { return m.first == name; });
      cells.push_back(it == row.metrics.end() ? "" : format_double(it->second));
    }
    csv.add_row(cells);
  }
  return os.str();
}

TEST(CsvField, SweepWriterQuotesHostileVariants) {
  const auto r = synthetic_sweep(5);
  std::ostringstream os;
  r.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find(",\"a,b\",1000,"), std::string::npos);
  EXPECT_NE(csv.find(",\"a\"\"b\",1001,"), std::string::npos);
  EXPECT_NE(csv.find(",\"a\nb\",1002,"), std::string::npos);
  EXPECT_NE(csv.find(",\"a\rb\",1003,"), std::string::npos);
  EXPECT_NE(csv.find(",plain,1004,"), std::string::npos);
}

TEST(CsvField, SweepWriterMatchesCsvWriterByteForByte) {
  const auto r = synthetic_sweep(2000);
  std::ostringstream os;
  r.write_csv(os);
  ASSERT_GT(os.str().size(), 2 * kArtifactChunkBytes);
  EXPECT_EQ(os.str(), sweep_csv_via_csv_writer(r));
}

}  // namespace
}  // namespace memdis
