#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "mcfs/common/flags.h"
#include "mcfs/common/random.h"
#include "mcfs/common/table.h"
#include "mcfs/common/timer.h"

namespace mcfs {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(1);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen, (std::set<int64_t>{3, 4, 5, 6, 7}));
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(3);
  double sum = 0.0;
  double sum2 = 0.0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) {
    const double x = rng.Gaussian(5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / samples;
  const double var = sum2 / samples - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementIsASubset) {
  Rng rng(4);
  const std::vector<int> sample = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--scale=0.5", "--seed=17", "--verbose",
                        "positional"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(flags.GetInt("seed", 0), 17);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
  EXPECT_FALSE(flags.Has("missing"));
}

// Helper: a Flags object over one --name=value pair.
Flags OneFlag(const std::string& arg) {
  std::string owned = arg;
  char* argv[] = {const_cast<char*>("prog"), owned.data()};
  return Flags(2, argv);
}

TEST(FlagsTest, StrictNumericParsingAcceptsFullTokens) {
  EXPECT_DOUBLE_EQ(
      *OneFlag("--deadline-ms=12.5").TryGetDouble("deadline_ms", 0.0), 12.5);
  EXPECT_DOUBLE_EQ(*OneFlag("--x=-3e2").TryGetDouble("x", 0.0), -300.0);
  EXPECT_EQ(*OneFlag("--seed=-17").TryGetInt("seed", 0), -17);
  EXPECT_EQ(*OneFlag("--seed=003").TryGetInt("seed", 0), 3);
  // Absent flags fall back to the default without error.
  EXPECT_DOUBLE_EQ(*OneFlag("--x=1").TryGetDouble("missing", 2.5), 2.5);
  EXPECT_EQ(*OneFlag("--x=1").TryGetInt("missing", 9), 9);
}

TEST(FlagsTest, MalformedNumericValueIsTypedErrorNamingTheFlag) {
  // The original bug: --deadline-ms=abc silently parsed to 0 because
  // strtod's end pointer was ignored. It must now be a typed error
  // whose message names the flag and the offending value.
  const StatusOr<int64_t> garbage =
      OneFlag("--deadline-ms=abc").TryGetInt("deadline_ms", 0);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(garbage.status().message().find("--deadline_ms=abc"),
            std::string::npos)
      << garbage.status().ToString();

  for (const char* arg : {"--x=12x", "--x=1.5.2", "--x=", "--x= 7",
                          "--x=7 ", "--x=nanx"}) {
    const StatusOr<double> parsed = OneFlag(arg).TryGetDouble("x", 0.0);
    EXPECT_FALSE(parsed.ok()) << arg;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidInput) << arg;
      EXPECT_NE(parsed.status().message().find("--x"), std::string::npos)
          << arg;
    }
  }
  // Trailing garbage and a fractional value are both invalid integers.
  EXPECT_FALSE(OneFlag("--x=12.5").TryGetInt("x", 0).ok());
  EXPECT_FALSE(OneFlag("--x=12x").TryGetInt("x", 0).ok());
}

TEST(FlagsTest, OutOfRangeNumbersAreRejected) {
  const StatusOr<double> huge =
      OneFlag("--x=1e999").TryGetDouble("x", 0.0);
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("out of range"),
            std::string::npos);
  EXPECT_FALSE(OneFlag("--x=-1e999").TryGetDouble("x", 0.0).ok());
  const StatusOr<int64_t> big =
      OneFlag("--x=99999999999999999999").TryGetInt("x", 0);
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.status().message().find("out of range"),
            std::string::npos);
  // Denormals underflow quietly to the nearest representable value
  // rather than erroring (matching strtod's contract).
  EXPECT_TRUE(OneFlag("--x=1e-999").TryGetDouble("x", 0.0).ok());
}

TEST(TableTest, FormatsNumbersAndCsv) {
  EXPECT_EQ(FmtDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FmtInt(50961), "50,961");
  EXPECT_EQ(FmtInt(287927), "287,927");
  EXPECT_EQ(FmtInt(12), "12");
  EXPECT_EQ(FmtSeconds(0.0123), "12.3 ms");
  EXPECT_EQ(FmtSeconds(5.0), "5.00 s");
  EXPECT_EQ(FmtSeconds(300.0), "5.0 min");

  Table table({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"3", "4"});
  EXPECT_EQ(table.num_rows(), 2u);
  const std::string path = ::testing::TempDir() + "/table.csv";
  ASSERT_TRUE(table.WriteCsv(path));
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.Seconds(), 0.0);
  EXPECT_LT(timer.Seconds(), 5.0);
  timer.Restart();
  EXPECT_LT(timer.Seconds(), 1.0);
}

}  // namespace
}  // namespace mcfs
