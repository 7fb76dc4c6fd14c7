// Tests for the bench binaries' shared argument parser: --help and unknown
// arguments must end the process before a bench does any work (a bench
// that ran on a typo would overwrite its committed BENCH_*.json).

#include <gtest/gtest.h>

#include "bench_common.h"

namespace ffet::bench {
namespace {

BenchArgs parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_bench_args(static_cast<int>(argv.size()), argv.data(),
                          "bench_test");
}

TEST(BenchArgs, QuickIsParsed) {
  EXPECT_FALSE(parse({"bench_test"}).quick);
  EXPECT_TRUE(parse({"bench_test", "--quick"}).quick);
}

TEST(BenchArgsDeathTest, HelpPrintsUsageAndExitsZero) {
  EXPECT_EXIT(parse({"bench_test", "--help"}), ::testing::ExitedWithCode(0),
              "");
  EXPECT_EXIT(parse({"bench_test", "--quick", "--help"}),
              ::testing::ExitedWithCode(0), "");
}

TEST(BenchArgsDeathTest, UnknownArgumentPrintsUsageAndExitsTwo) {
  EXPECT_EXIT(parse({"bench_test", "--hlep"}), ::testing::ExitedWithCode(2),
              "unknown argument '--hlep'(.|\n)*usage: bench_test");
  EXPECT_EXIT(parse({"bench_test", "--quick", "quick"}),
              ::testing::ExitedWithCode(2), "usage: bench_test");
}

}  // namespace
}  // namespace ffet::bench
