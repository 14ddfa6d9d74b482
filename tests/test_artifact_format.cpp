// Direct tests for the byte-stable artifact formatting helpers
// (common/artifact_format.h). These back the repository-wide byte-identity
// contract: the same double must always render the same bytes, and those
// bytes must strtod back to the exact bit pattern.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/artifact_format.h"
#include "common/rng.h"
#include "core/sweep.h"
#include "fleet/fleet.h"

namespace memdis {
namespace {

double parse_back(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

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
}

TEST(ArtifactFile, UnopenablePathThrows) {
  EXPECT_THROW(write_artifact_file("/nonexistent-dir/x.csv", [](std::ostream&) {}),
               std::runtime_error);
}

}  // namespace
}  // namespace memdis
