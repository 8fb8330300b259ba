/**
 * @file
 * Centralized CRYPTARCH_* environment parsing: accepted values parse,
 * unrecognized values keep the default and warn exactly once per
 * variable per process.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "driver/sweep.hh"
#include "util/env.hh"

namespace
{

using namespace cryptarch;

class EnvGuard
{
  public:
    EnvGuard(const char *var, const char *value) : var_(var)
    {
        ::setenv(var, value, 1);
    }
    ~EnvGuard() { ::unsetenv(var_); }

  private:
    const char *var_;
};

TEST(Env, ChoiceParsesAcceptedValuesAndDefaultsWhenUnset)
{
    ::unsetenv("CRYPTARCH_TEST_CHOICE");
    EXPECT_EQ(util::envChoice("CRYPTARCH_TEST_CHOICE",
                              {{"alpha", 1}, {"beta", 2}}, 7),
              7);
    {
        EnvGuard g("CRYPTARCH_TEST_CHOICE", "alpha");
        EXPECT_EQ(util::envChoice("CRYPTARCH_TEST_CHOICE",
                                  {{"alpha", 1}, {"beta", 2}}, 7),
                  1);
    }
    {
        EnvGuard g("CRYPTARCH_TEST_CHOICE", "beta");
        EXPECT_EQ(util::envChoice("CRYPTARCH_TEST_CHOICE",
                                  {{"alpha", 1}, {"beta", 2}}, 7),
                  2);
    }
}

TEST(Env, UnrecognizedChoiceWarnsOncePerVariable)
{
    util::resetEnvWarningsForTesting();
    EnvGuard g("CRYPTARCH_TEST_WARN", "typo");
    const uint64_t before = util::envWarningCount();
    EXPECT_EQ(util::envChoice("CRYPTARCH_TEST_WARN",
                              {{"alpha", 1}, {"beta", 2}}, 7),
              7);
    EXPECT_EQ(util::envWarningCount(), before + 1);
    // Re-reading the same broken variable must not warn again — a
    // sweep re-reads policy per cell and one typo is one line.
    EXPECT_EQ(util::envChoice("CRYPTARCH_TEST_WARN",
                              {{"alpha", 1}, {"beta", 2}}, 7),
              7);
    EXPECT_EQ(util::envWarningCount(), before + 1);
    // A different variable warns independently.
    EnvGuard g2("CRYPTARCH_TEST_WARN2", "also-bad");
    EXPECT_FALSE(util::envFlag("CRYPTARCH_TEST_WARN2", false));
    EXPECT_EQ(util::envWarningCount(), before + 2);
}

TEST(Env, WarningListsAcceptedValues)
{
    EXPECT_EQ(util::describeEnvChoices({{"thread", 0}, {"process", 1}}),
              "thread, process");
}

TEST(Env, FlagParsesAllSpellings)
{
    ::unsetenv("CRYPTARCH_TEST_FLAG");
    EXPECT_TRUE(util::envFlag("CRYPTARCH_TEST_FLAG", true));
    EXPECT_FALSE(util::envFlag("CRYPTARCH_TEST_FLAG", false));
    for (const char *t : {"1", "on", "true", "yes"}) {
        EnvGuard g("CRYPTARCH_TEST_FLAG", t);
        EXPECT_TRUE(util::envFlag("CRYPTARCH_TEST_FLAG", false)) << t;
    }
    for (const char *f : {"0", "off", "false", "no"}) {
        EnvGuard g("CRYPTARCH_TEST_FLAG", f);
        EXPECT_FALSE(util::envFlag("CRYPTARCH_TEST_FLAG", true)) << f;
    }
}

TEST(Env, MalformedFlagKeepsDefaultAndWarns)
{
    util::resetEnvWarningsForTesting();
    EnvGuard g("CRYPTARCH_TEST_FLAG_BAD", "maybe");
    const uint64_t before = util::envWarningCount();
    EXPECT_TRUE(util::envFlag("CRYPTARCH_TEST_FLAG_BAD", true));
    EXPECT_FALSE(util::envFlag("CRYPTARCH_TEST_FLAG_BAD", false));
    EXPECT_EQ(util::envWarningCount(), before + 1);
}

TEST(Env, U64ParsesAndRejectsGarbage)
{
    ::unsetenv("CRYPTARCH_TEST_U64");
    EXPECT_EQ(util::envU64("CRYPTARCH_TEST_U64", 42), 42u);
    {
        EnvGuard g("CRYPTARCH_TEST_U64", "123456789");
        EXPECT_EQ(util::envU64("CRYPTARCH_TEST_U64", 42), 123456789u);
    }
    util::resetEnvWarningsForTesting();
    const uint64_t before = util::envWarningCount();
    {
        EnvGuard g("CRYPTARCH_TEST_U64", "12abc");
        EXPECT_EQ(util::envU64("CRYPTARCH_TEST_U64", 42), 42u);
    }
    EXPECT_EQ(util::envWarningCount(), before + 1);
}

TEST(Env, DoubleParsesAndRejectsNegative)
{
    ::unsetenv("CRYPTARCH_TEST_DBL");
    EXPECT_DOUBLE_EQ(util::envDouble("CRYPTARCH_TEST_DBL", 1.5), 1.5);
    {
        EnvGuard g("CRYPTARCH_TEST_DBL", "12.5");
        EXPECT_DOUBLE_EQ(util::envDouble("CRYPTARCH_TEST_DBL", 1.5), 12.5);
    }
    util::resetEnvWarningsForTesting();
    const uint64_t before = util::envWarningCount();
    {
        EnvGuard g("CRYPTARCH_TEST_DBL", "-3");
        EXPECT_DOUBLE_EQ(util::envDouble("CRYPTARCH_TEST_DBL", 1.5), 1.5);
    }
    EXPECT_EQ(util::envWarningCount(), before + 1);
}

TEST(Env, UnknownSweepIsolateWarnsThroughTheSharedParser)
{
    // CRYPTARCH_SWEEP_ISOLATE=typo must keep the thread default and
    // produce one typed warning listing the accepted values, through
    // the driver's own parse.
    util::resetEnvWarningsForTesting();
    EnvGuard g("CRYPTARCH_SWEEP_ISOLATE", "typo");
    const uint64_t before = util::envWarningCount();
    EXPECT_EQ(driver::sweepOptionsFromEnv().isolation,
              driver::SweepIsolation::Thread);
    EXPECT_EQ(util::envWarningCount(), before + 1);
}

} // namespace
