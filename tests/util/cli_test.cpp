#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/status.hpp"

namespace fsim::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  Cli c = make({"--runs=500", "--app=wavetoy"});
  EXPECT_EQ(c.num("runs", 0), 500);
  EXPECT_EQ(c.str("app", ""), "wavetoy");
}

TEST(Cli, BooleanFlagKeepsNextPositional) {
  // Only `--name=value` carries a value: the word after a bare flag stays
  // positional (`fsim resume --quiet ck.json`).
  Cli c = make({"--quiet", "ck.json", "--json", "b.json"});
  EXPECT_TRUE(c.flag("quiet"));
  EXPECT_TRUE(c.flag("json"));
  ASSERT_EQ(c.positional().size(), 2u);
  EXPECT_EQ(c.positional()[0], "ck.json");
  EXPECT_EQ(c.positional()[1], "b.json");
}

TEST(Cli, BooleanFlag) {
  Cli c = make({"--csv"});
  EXPECT_TRUE(c.flag("csv"));
  EXPECT_FALSE(c.flag("quiet"));
}

TEST(Cli, FlagFalseValues) {
  EXPECT_FALSE(make({"--csv=false"}).flag("csv", true));
  EXPECT_FALSE(make({"--csv=0"}).flag("csv", true));
  EXPECT_FALSE(make({"--csv=no"}).flag("csv", true));
}

TEST(Cli, Fallbacks) {
  Cli c = make({});
  EXPECT_EQ(c.num("runs", 42), 42);
  EXPECT_EQ(c.str("app", "minimd"), "minimd");
  EXPECT_DOUBLE_EQ(c.real("alpha", 0.05), 0.05);
}

TEST(Cli, RealParsing) {
  Cli c = make({"--alpha=0.01"});
  EXPECT_DOUBLE_EQ(c.real("alpha", 0.0), 0.01);
}

TEST(Cli, BadNumberThrows) {
  Cli c = make({"--runs=abc"});
  EXPECT_THROW(c.num("runs", 0), SetupError);
  EXPECT_THROW(make({"--runs="}).num("runs", 0), SetupError);
}

TEST(Cli, Positional) {
  Cli c = make({"wavetoy", "--runs=5", "extra"});
  ASSERT_EQ(c.positional().size(), 2u);
  EXPECT_EQ(c.positional()[0], "wavetoy");
  EXPECT_EQ(c.positional()[1], "extra");
}

TEST(Cli, UnusedDetectsTypos) {
  Cli c = make({"--rnus=500"});
  (void)c.num("runs", 0);
  const auto unused = c.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "rnus");
}

TEST(Cli, CountsAreRangeChecked) {
  EXPECT_EQ(make({"--runs=7"}).count("runs", 200), 7);
  EXPECT_EQ(make({}).count("runs", 200), 200);
  EXPECT_EQ(make({"--runs=0"}).count("runs", 200, 0), 0);
  for (const char* bad : {"--runs=0", "--runs=-5", "--runs=4294967298",
                          "--runs=2147483648"})
    EXPECT_THROW(make({bad}).count("runs", 200), SetupError) << bad;
  EXPECT_THROW(make({"--runs=abc"}).count("runs", 200), SetupError);
}

TEST(Cli, RejectUnused) {
  Cli typo = make({"--runz=3"});
  (void)typo.count("runs", 200);
  EXPECT_THROW(typo.reject_unused(), SetupError);
  Cli stray = make({"--runs=3", "extra"});
  (void)stray.count("runs", 200);
  EXPECT_THROW(stray.reject_unused(), SetupError);
  EXPECT_NO_THROW(stray.reject_unused(/*takes_files=*/true));
}

TEST(Cli, HexNumbers) {
  Cli c = make({"--seed=0xff"});
  EXPECT_EQ(c.num("seed", 0), 255);
  EXPECT_EQ(c.u64("seed", 0), 255u);
}

TEST(Cli, OverflowThrows) {
  EXPECT_THROW(make({"--runs=99999999999999999999999"}).num("runs", 0),
               SetupError);
  EXPECT_THROW(make({"--runs=-99999999999999999999999"}).num("runs", 0),
               SetupError);
  std::int64_t v = 0;
  EXPECT_TRUE(Cli::parse_int("9223372036854775807", v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_FALSE(Cli::parse_int("9223372036854775808", v));
}

TEST(Cli, SeedsAreStrictU64) {
  EXPECT_EQ(make({}).u64("seed", 7), 7u);
  EXPECT_EQ(make({"--seed=18446744073709551615"}).u64("seed", 0),
            UINT64_MAX);
  EXPECT_EQ(make({"--seed=9223372036854775808"}).u64("seed", 0),
            9223372036854775808ull);
  for (const char* bad : {"--seed=18446744073709551616",
                          "--seed=99999999999999999999999", "--seed=-1",
                          "--seed=+1", "--seed= 1", "--seed=", "--seed=1x"})
    EXPECT_THROW(make({bad}).u64("seed", 0), SetupError) << bad;
}

}  // namespace
}  // namespace fsim::util
