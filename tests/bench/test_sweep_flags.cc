/**
 * @file
 * The grid benches' shared flag parser (bench::sweepOptions), the one
 * way to set a sweep's isolation, journal, deadline and worker count:
 * each flag parses, arguments it does not own pass through, and a
 * malformed value exits 2 instead of running the wrong configuration.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace
{

using namespace cryptarch;

/** Parse @p args as a bench command line (argv[0] is supplied). */
driver::SweepOptions
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return bench::sweepOptions(static_cast<int>(args.size()), argv.data());
}

TEST(SweepFlags, EachFlagParses)
{
    EXPECT_EQ(parse({"--isolate=process"}).isolation,
              driver::SweepIsolation::Process);
    EXPECT_EQ(parse({"--isolate=process", "--isolate=thread"}).isolation,
              driver::SweepIsolation::Thread);
    EXPECT_EQ(parse({"--journal=/tmp/j.bin"}).journalPath, "/tmp/j.bin");
    EXPECT_DOUBLE_EQ(parse({"--deadline=12.5"}).cellDeadlineSeconds, 12.5);
    EXPECT_TRUE(std::isinf(parse({"--deadline=inf"}).cellDeadlineSeconds));
    EXPECT_EQ(parse({"--threads=3"}).threads, 3u);
    EXPECT_EQ(parse({"--threads=0"}).threads, 0u);
    EXPECT_EQ(parse({"--threads=4294967295"}).threads, 4294967295u);
}

TEST(SweepFlags, UnknownArgumentsPassThrough)
{
    // Nothing here is a sweep flag, so every option keeps its default.
    const auto opts = parse({"--quick", "--seed=7", "positional",
                             "--isolate", "--journal", "--deadline"});
    EXPECT_EQ(opts.isolation, driver::SweepIsolation::Thread);
    EXPECT_EQ(opts.threads, 0u);
    EXPECT_EQ(opts.cellDeadlineSeconds, 0);
    EXPECT_TRUE(opts.journalPath.empty());
}

TEST(SweepFlags, MalformedValuesExit2)
{
    for (const char *bad :
         {"--isolate=container", "--isolate=", "--journal=", "--deadline=",
          "--deadline=0", "--deadline=-1", "--deadline=5s",
          "--deadline=nan", "--threads=", "--threads=4x", "--threads=-1",
          "--threads=4294967296", "--threads=99999999999999999999999"})
        EXPECT_EXIT(parse({bad}), ::testing::ExitedWithCode(2), "") << bad;
}

} // namespace
