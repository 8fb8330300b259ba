/**
 * @file
 * The grid benches' shared flag parser (bench::sweepOptions), the one
 * way to set a sweep's isolation, journal, deadline and worker count
 * and to turn on the auditor: each flag parses, the flags a bench
 * names as its own pass through, and any other argument or a
 * malformed value exits 2 instead of running the wrong configuration.
 * The benches without sweep flags reject unknown arguments through the
 * same check (bench::rejectUnknownArgs). Its count check
 * (bench::parseCount) is server_scale's too.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hh"
#include "sim/validate.hh"

namespace
{

using namespace cryptarch;

/** Call @p fn(argc, argv) on @p args as the command line (argv[0] is
 *  supplied). */
template <class Fn>
auto
withArgv(std::vector<std::string> args, Fn &&fn)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return fn(static_cast<int>(args.size()), argv.data());
}

/** Parse @p args as the command line of a bench that owns the flags
 *  @p own. */
driver::SweepOptions
parse(std::vector<std::string> args,
      std::initializer_list<const char *> own = {})
{
    return withArgv(std::move(args), [&](int argc, char **argv) {
        return bench::sweepOptions(argc, argv, own);
    });
}

/** Check @p args as the command line of a bench without sweep flags
 *  that owns the flags @p own. */
void
check(std::vector<std::string> args,
      std::initializer_list<const char *> own = {})
{
    withArgv(std::move(args), [&](int argc, char **argv) {
        bench::rejectUnknownArgs(argc, argv, own);
        return 0;
    });
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

TEST(SweepFlags, BenchOwnedFlagsPassThrough)
{
    // configfuzz's own flags: nothing here is a sweep flag, so every
    // option keeps its default.
    const auto opts =
        parse({"--quick", "--seed=7", "--seed=0x10"}, {"--quick", "--seed="});
    EXPECT_EQ(opts.isolation, driver::SweepIsolation::Thread);
    EXPECT_EQ(opts.threads, 0u);
    EXPECT_EQ(opts.cellDeadlineSeconds, 0);
    EXPECT_TRUE(opts.journalPath.empty());
    EXPECT_EQ(parse({"--seed=7", "--threads=3"}, {"--seed="}).threads, 3u);
}

TEST(SweepFlags, UnknownArgumentsExit2)
{
    // A misspelt --audit must not run an unaudited sweep that exits 0.
    for (const char *bad :
         {"--audti", "--audit=1", "positional", "--isolate", "--journal",
          "--deadline", "--threads", "--quick", "--seed=7", "-audit"})
        EXPECT_EXIT(parse({bad}), ::testing::ExitedWithCode(2), "unknown")
            << bad;
    // An owned flag matches exactly unless it ends in '='.
    EXPECT_EXIT(parse({"--quickly"}, {"--quick"}),
                ::testing::ExitedWithCode(2), "unknown");
    EXPECT_EXIT(parse({"--seed"}, {"--seed="}),
                ::testing::ExitedWithCode(2), "unknown");
}

TEST(SweepFlags, BenchesWithoutSweepFlagsTakeOnlyTheirOwn)
{
    // tab01 takes nothing; fig02, fig07, simspeed, faultinject and
    // chaos each one flag of their own.
    check({});
    for (const char *flag : {"--quick", "--rc4", "--value-prediction"}) {
        check({flag}, {flag});
        check({flag, flag}, {flag});
    }
    for (const char *bad :
         {"--bogus", "--quik", "--quick=1", "-quick", "quick", "",
          "--threads=2", "--isolate=thread", "--audit", "--rc4"})
        EXPECT_EXIT(check({bad}, {"--quick"}), ::testing::ExitedWithCode(2),
                    "unknown")
            << bad;
    // Every position is checked, and a bench that owns nothing takes
    // nothing.
    EXPECT_EXIT(check({"--quick", "--bogus"}, {"--quick"}),
                ::testing::ExitedWithCode(2), "unknown argument '--bogus'");
    EXPECT_EXIT(check({"--rc4"}), ::testing::ExitedWithCode(2), "unknown");
}

TEST(SweepFlags, AuditTurnsOnTheAuditorAndNothingElseTouchesIt)
{
    const bool prev = sim::simAuditEnabled();
    for (bool before : {false, true}) {
        sim::setSimAudit(before);
        parse({"--quick", "--threads=2"}, {"--quick"});
        EXPECT_EQ(sim::simAuditEnabled(), before);
    }
    sim::setSimAudit(false);
    EXPECT_EQ(parse({"--audit"}).threads, 0u);
    EXPECT_TRUE(sim::simAuditEnabled());
    sim::setSimAudit(prev);
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

TEST(SweepFlags, ParseCountTakesDigitsUpToTheBound)
{
    unsigned long long n = 7;
    EXPECT_TRUE(bench::parseCount("0", 10, n));
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(bench::parseCount("10", 10, n));
    EXPECT_EQ(n, 10u);
    EXPECT_TRUE(bench::parseCount("4294967295", UINT_MAX, n));
    EXPECT_EQ(n, 4294967295u);
    EXPECT_TRUE(bench::parseCount("18446744073709551615", ULLONG_MAX, n));
    EXPECT_EQ(n, ULLONG_MAX);
    for (const char *bad : {"", "abc", "4x", "-1", "+1", " 1", "1 ", "0x10"})
        EXPECT_FALSE(bench::parseCount(bad, ULLONG_MAX, n)) << bad;
    EXPECT_FALSE(bench::parseCount("11", 10, n));
    EXPECT_FALSE(bench::parseCount("4294967296", UINT_MAX, n));
    EXPECT_FALSE(bench::parseCount("4294967297", UINT_MAX, n));
    // Past ULLONG_MAX strtoull saturates; the overflow still fails.
    EXPECT_FALSE(bench::parseCount("18446744073709551616", ULLONG_MAX, n));
    EXPECT_FALSE(
        bench::parseCount("99999999999999999999999", ULLONG_MAX, n));
}

} // namespace
