// Copyright (c) 2026 The siri Authors. MIT license.
//
// Bench flag validation (bench/bench_common.h): FirstUnknownFlag's
// matching rules, and ParseScale's fail-fast rejection of anything not in
// kKnownBenchFlags — a typo'd flag must abort the run instead of silently
// benchmarking the defaults and poisoning a recorded trajectory.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace siri {
namespace bench {
namespace {

/// Fabricated argv (argv[0] is the program name, as in main).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "bench_binary");
    ptrs_.reserve(args_.size());
    for (auto& a : args_) ptrs_.push_back(a.data());
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(BenchFlagsTest, NoArgumentsIsClean) {
  Argv a({});
  EXPECT_EQ(FirstUnknownFlag(a.argc(), a.argv()), nullptr);
}

TEST(BenchFlagsTest, EveryKnownFlagIsAccepted) {
  Argv a({"--scale=8", "--threads=1,2,4", "--write-threads=2", "--help",
          "--threads-only", "--write-scaling-only", "--branch-commits-only",
          "--group-commit-only", "--smoke", "--transport=socket", "--chaos",
          "--pipeline", "--disk-fault=enospc"});
  EXPECT_EQ(FirstUnknownFlag(a.argc(), a.argv()), nullptr);
}

TEST(BenchFlagsTest, ParseTransportFlagDefaultsToInproc) {
  Argv a({"--scale=2"});
  EXPECT_EQ(ParseTransportFlag(a.argc(), a.argv()), "inproc");
}

TEST(BenchFlagsTest, ParseTransportFlagAcceptsBothTransports) {
  Argv inproc({"--transport=inproc"});
  EXPECT_EQ(ParseTransportFlag(inproc.argc(), inproc.argv()), "inproc");
  Argv socket({"--transport=socket"});
  EXPECT_EQ(ParseTransportFlag(socket.argc(), socket.argv()), "socket");
}

TEST(BenchFlagsDeathTest, ParseTransportFlagRejectsUnknownValue) {
  // A misspelled transport must abort, not silently benchmark in-process
  // and record the numbers under the wrong label.
  Argv a({"--transport=sockte"});
  EXPECT_EXIT(ParseTransportFlag(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--transport must be");
}

TEST(BenchFlagsTest, ParseDiskFaultFlagDefaultsToNone) {
  Argv a({"--transport=socket"});
  EXPECT_EQ(ParseDiskFaultFlag(a.argc(), a.argv()), "none");
  Argv enospc({"--disk-fault=enospc"});
  EXPECT_EQ(ParseDiskFaultFlag(enospc.argc(), enospc.argv()), "enospc");
}

TEST(BenchFlagsDeathTest, ParseDiskFaultFlagRejectsUnknownValue) {
  // A misspelled fault kind must abort, not run the healthy benchmark and
  // report it as a fault run.
  Argv a({"--disk-fault=enospec"});
  EXPECT_EXIT(ParseDiskFaultFlag(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2), "--disk-fault must be");
}

TEST(BenchFlagsTest, ParseSocketTablePicksTheNamedTable) {
  Argv none({"--transport=socket"});
  EXPECT_EQ(ParseSocketTable(none.argc(), none.argv()), "commit");
  Argv chaos({"--chaos"});
  EXPECT_EQ(ParseSocketTable(chaos.argc(), chaos.argv()), "chaos");
  Argv pipeline({"--pipeline"});
  EXPECT_EQ(ParseSocketTable(pipeline.argc(), pipeline.argv()), "pipeline");
  Argv disk({"--disk-fault=enospc"});
  EXPECT_EQ(ParseSocketTable(disk.argc(), disk.argv()), "disk-fault");
}

TEST(BenchFlagsDeathTest, ParseSocketTableRejectsTwoTables) {
  // Each socket table is its own run: two of them must abort, not
  // silently run only one.
  Argv a({"--transport=socket", "--chaos", "--pipeline"});
  EXPECT_EXIT(ParseSocketTable(a.argc(), a.argv()),
              ::testing::ExitedWithCode(2),
              "--chaos and --pipeline select different socket tables");
  Argv b({"--disk-fault=enospc", "--chaos"});
  EXPECT_EXIT(ParseSocketTable(b.argc(), b.argv()),
              ::testing::ExitedWithCode(2),
              "--disk-fault and --chaos select different socket tables");
}

TEST(BenchFlagsTest, ParseThreadListReadsEveryCount) {
  Argv none({"--scale=2"});
  EXPECT_EQ(ParseThreadCounts(none.argc(), none.argv()),
            (std::vector<int>{1, 2, 4, 8}));
  Argv list({"--threads=1,3,16"});
  EXPECT_EQ(ParseThreadCounts(list.argc(), list.argv()),
            (std::vector<int>{1, 3, 16}));
  Argv writers({"--write-threads=4", "--threads=2"});
  EXPECT_EQ(ParseWriteThreadCounts(writers.argc(), writers.argv()),
            (std::vector<int>{4}));
  Argv max({"--threads=2147483647"});
  EXPECT_EQ(ParseThreadCounts(max.argc(), max.argv()),
            (std::vector<int>{2147483647}));
}

TEST(BenchFlagsDeathTest, ParseThreadListRejectsEveryMalformedCount) {
  // Each of these used to run some other sweep with exit 0: the typo'd
  // element was dropped, the list cut at it, or the whole flag replaced
  // by the default 1,2,4,8. These only parse — no thread is started.
  for (const char* bad :
       {"O4", "4,x", "x,4", "", "4,", ",4", "4,,8", "0", "2,0", "-2", "+4",
        " 4", "4 ", "4.5", "2147483648", "99999999999999999999"}) {
    Argv a({std::string("--write-threads=") + bad});
    EXPECT_EXIT(ParseWriteThreadCounts(a.argc(), a.argv()),
                ::testing::ExitedWithCode(2),
                "--write-threads= wants positive counts")
        << "--write-threads=" << bad;
  }
  Argv threads({"--threads=1,2,four"});
  EXPECT_EXIT(ParseThreadCounts(threads.argc(), threads.argv()),
              ::testing::ExitedWithCode(2), "--threads= wants positive counts");
}

TEST(BenchFlagsTest, ReturnsTheFirstUnknownFlag) {
  Argv a({"--scale=4", "--sclae=8", "--also-bad"});
  const char* bad = FirstUnknownFlag(a.argc(), a.argv());
  ASSERT_NE(bad, nullptr);
  EXPECT_STREQ(bad, "--sclae=8");
}

TEST(BenchFlagsTest, PrefixFlagWithoutValueIsUnknown) {
  // "--threads=" is a prefix flag; bare "--threads" matches nothing.
  Argv a({"--threads"});
  const char* bad = FirstUnknownFlag(a.argc(), a.argv());
  ASSERT_NE(bad, nullptr);
  EXPECT_STREQ(bad, "--threads");
}

TEST(BenchFlagsTest, ExactFlagWithValueIsUnknown) {
  // "--smoke" is exact-match; "--smoke=1" is a different (bad) spelling.
  Argv a({"--smoke=1"});
  const char* bad = FirstUnknownFlag(a.argc(), a.argv());
  ASSERT_NE(bad, nullptr);
  EXPECT_STREQ(bad, "--smoke=1");
}

TEST(BenchFlagsTest, PositionalArgumentIsUnknown) {
  Argv a({"extra"});
  const char* bad = FirstUnknownFlag(a.argc(), a.argv());
  ASSERT_NE(bad, nullptr);
  EXPECT_STREQ(bad, "extra");
}

TEST(BenchFlagsTest, ParseScaleStillParsesScale) {
  Argv a({"--scale=8", "--smoke"});
  EXPECT_EQ(ParseScale(a.argc(), a.argv()), 8u);
}

TEST(BenchFlagsDeathTest, ParseScaleExitsNonZeroOnUnknownFlag) {
  Argv a({"--sclae=8"});
  EXPECT_EXIT(ParseScale(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
              "unrecognized argument '--sclae=8'");
}

}  // namespace
}  // namespace bench
}  // namespace siri
