/**
 * @file
 * CRYPTARCH_* environment flag parsing.
 *
 * On/off knobs (CRYPTARCH_SIM_AUDIT) go through envFlag so an
 * unrecognized value keeps the caller's default AND emits one typed
 * warning naming the variable, the rejected value and the accepted
 * spellings — once per variable per process, so a sweep cannot flood
 * the log. The chaos fault spec (CRYPTARCH_SWEEP_CHAOS) has its own
 * parser (driver/procpool.hh).
 */

#ifndef CRYPTARCH_UTIL_ENV_HH
#define CRYPTARCH_UTIL_ENV_HH

#include <cstdint>

namespace cryptarch::util
{

/**
 * Parse @p var as a boolean flag: "1"/"on"/"true"/"yes" are true,
 * "0"/"off"/"false"/"no" are false, unset is @p dflt, anything else
 * warns (once) and is @p dflt.
 */
bool envFlag(const char *var, bool dflt);

/**
 * Process-wide count of unrecognized-value warnings emitted. Tests
 * assert the once-per-variable policy through this counter.
 */
uint64_t envWarningCount();

/** Forget which variables already warned (test isolation only). */
void resetEnvWarningsForTesting();

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_ENV_HH
