// Tests for the CLI argument parser.
#include "cli/args.h"

#include <gtest/gtest.h>

namespace pcbl {
namespace cli {
namespace {

TEST(ArgsTest, PositionalOnly) {
  auto args = Args::Parse({"a.csv", "b.csv"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->positional().size(), 2u);
  EXPECT_EQ(args->positional()[0], "a.csv");
  EXPECT_FALSE(args->Has("anything"));
}

TEST(ArgsTest, FlagWithSeparateValue) {
  auto args = Args::Parse({"--bound", "50", "data.csv"});
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args->GetString("bound"), "50");
  ASSERT_EQ(args->positional().size(), 1u);
  EXPECT_EQ(args->positional()[0], "data.csv");
}

TEST(ArgsTest, FlagWithEqualsValue) {
  auto args = Args::Parse({"--bound=50", "--name=my data"});
  ASSERT_TRUE(args.ok());
  auto bound = args->GetInt("bound", 0);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, 50);
  EXPECT_EQ(args->GetString("name"), "my data");
}

TEST(ArgsTest, BareBooleanFlag) {
  auto args = Args::Parse({"--binary", "--out", "x.bin"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->GetBool("binary"));
  EXPECT_EQ(args->GetString("out"), "x.bin");
  EXPECT_FALSE(args->GetBool("absent"));
}

TEST(ArgsTest, BooleanBeforeAnotherFlag) {
  auto args = Args::Parse({"--binary", "--bound", "10"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->GetBool("binary"));
  auto bound = args->GetInt("bound", 0);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, 10);
}

TEST(ArgsTest, DoubleDashEndsFlags) {
  auto args = Args::Parse({"--bound", "5", "--", "--not-a-flag"});
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args->positional().size(), 1u);
  EXPECT_EQ(args->positional()[0], "--not-a-flag");
}

TEST(ArgsTest, IntParseErrorPropagates) {
  auto args = Args::Parse({"--bound", "fifty"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args->GetInt("bound", 0).ok());
  EXPECT_FALSE(args->GetDouble("bound", 0.0).ok());
}

TEST(ArgsTest, DefaultsApplyWhenAbsent) {
  auto args = Args::Parse({});
  ASSERT_TRUE(args.ok());
  auto bound = args->GetInt("bound", 100);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, 100);
  EXPECT_EQ(args->GetString("algo", "topdown"), "topdown");
}

TEST(ArgsTest, CheckKnownRejectsTypos) {
  auto args = Args::Parse({"--buond", "50"});
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args->CheckKnown({"bound", "algo"}).ok());
  EXPECT_TRUE(args->CheckKnown({"buond"}).ok());
}

TEST(ArgsTest, RequirePositionalCounts) {
  auto args = Args::Parse({"one"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->RequirePositional(1, "usage").ok());
  EXPECT_FALSE(args->RequirePositional(2, "usage").ok());
}

TEST(ArgsTest, EmptyFlagNameIsError) {
  // "--" alone is the end-of-flags marker, but "--=x" has an empty name.
  auto args = Args::Parse({"--=x"});
  ASSERT_TRUE(args.ok());  // parsed as flag named "" with value x
  EXPECT_TRUE(args->Has(""));
}

TEST(ArgsTest, LastValueWinsOnRepeat) {
  auto args = Args::Parse({"--bound", "10", "--bound", "20"});
  ASSERT_TRUE(args.ok());
  auto bound = args->GetInt("bound", 0);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, 20);
}

TEST(ArgsTest, CountingEngineFlagsParse) {
  // The engine knobs shared by build/estimate/profile: --threads N,
  // --cache-budget N (both value flags) and --no-result-cache (bare
  // boolean), in the mixed forms users type them.
  auto args = Args::Parse({"data.csv", "--threads", "8",
                           "--no-result-cache", "--cache-budget=1048576"});
  ASSERT_TRUE(args.ok());
  auto threads = args->GetInt("threads", 0);
  ASSERT_TRUE(threads.ok());
  EXPECT_EQ(*threads, 8);
  EXPECT_TRUE(args->GetBool("no-result-cache"));
  auto budget = args->GetInt("cache-budget", -1);
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(*budget, 1048576);
  EXPECT_TRUE(
      args->CheckKnown({"threads", "no-result-cache", "cache-budget"})
          .ok());
  ASSERT_EQ(args->positional().size(), 1u);
}

TEST(ArgsTest, CountingEngineFlagDefaultsAndErrors) {
  auto args = Args::Parse({"--cache-budget", "0", "--threads", "many"});
  ASSERT_TRUE(args.ok());
  // Explicit 0 disables memoization and must parse as present-with-value.
  EXPECT_TRUE(args->Has("cache-budget"));
  auto budget = args->GetInt("cache-budget", 77);
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(*budget, 0);
  // Malformed --threads propagates a parse error instead of defaulting.
  EXPECT_FALSE(args->GetInt("threads", 1).ok());
  // Absent flags keep their defaults.
  auto absent = Args::Parse({});
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->Has("no-result-cache"));
  EXPECT_FALSE(absent->GetBool("no-result-cache"));
  auto fallback = absent->GetInt("threads", 4);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(*fallback, 4);
}

}  // namespace
}  // namespace cli
}  // namespace pcbl
