#include "util/env.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>

namespace cryptarch::util
{

namespace
{

std::atomic<uint64_t> warning_count{0};

std::mutex warned_mutex;
std::set<std::string> &
warnedVars()
{
    static std::set<std::string> vars;
    return vars;
}

/**
 * Emit the typed warning for @p var once per process: repeated bad
 * reads of the same variable (every sweep cell re-reading policy) must
 * not turn one typo into thousands of stderr lines.
 */
void
warnOnce(const char *var, const char *got)
{
    {
        std::lock_guard<std::mutex> lock(warned_mutex);
        if (!warnedVars().insert(var).second)
            return;
    }
    warning_count.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "cryptarch: ignoring unrecognized %s='%s' (accepted: 1, "
                 "on, true, yes, 0, off, false, no); using the default\n",
                 var, got);
}

} // namespace

bool
envFlag(const char *var, bool dflt)
{
    const char *env = std::getenv(var);
    if (!env)
        return dflt;
    static constexpr const char *truthy[] = {"1", "on", "true", "yes"};
    static constexpr const char *falsy[] = {"0", "off", "false", "no"};
    for (const char *t : truthy)
        if (std::strcmp(env, t) == 0)
            return true;
    for (const char *f : falsy)
        if (std::strcmp(env, f) == 0)
            return false;
    warnOnce(var, env);
    return dflt;
}

uint64_t
envWarningCount()
{
    return warning_count.load(std::memory_order_relaxed);
}

void
resetEnvWarningsForTesting()
{
    std::lock_guard<std::mutex> lock(warned_mutex);
    warnedVars().clear();
}

} // namespace cryptarch::util
