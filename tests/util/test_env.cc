/**
 * @file
 * CRYPTARCH_* flag parsing: accepted spellings parse, unrecognized
 * values keep the default and warn exactly once per variable per
 * process.
 */

#include <gtest/gtest.h>

#include <cstdlib>

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
    // A different variable warns independently.
    EnvGuard g2("CRYPTARCH_TEST_WARN2", "also-bad");
    EXPECT_FALSE(util::envFlag("CRYPTARCH_TEST_WARN2", false));
    EXPECT_EQ(util::envWarningCount(), before + 2);
}

} // namespace
