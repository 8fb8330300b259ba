/**
 * @file
 * Centralized CRYPTARCH_* environment parsing.
 *
 * Every knob the simulator reads from the environment goes through
 * these helpers so unrecognized values behave uniformly: the caller's
 * default is used AND one typed warning line naming the variable, the
 * rejected value and the accepted values is emitted to stderr — once
 * per variable per process, so a sweep spawning thousands of cells
 * cannot flood the log. Historically each call site parsed its
 * variable ad hoc and fell back silently (a misspelled
 * CRYPTARCH_SWEEP_ISOLATE quietly meant "thread"), which is exactly
 * the class of config mistake this repo's hardening layer exists to
 * surface.
 */

#ifndef CRYPTARCH_UTIL_ENV_HH
#define CRYPTARCH_UTIL_ENV_HH

#include <cstdint>
#include <initializer_list>
#include <string>

namespace cryptarch::util
{

/** One accepted spelling of an enumerated environment value. */
struct EnvChoice
{
    const char *name;
    int value;
};

/**
 * Parse @p var as one of @p choices. Unset returns @p dflt; a value
 * matching a choice name returns that choice's value; anything else
 * warns (once per variable) and returns @p dflt.
 */
int envChoice(const char *var, std::initializer_list<EnvChoice> choices,
              int dflt);

/**
 * Parse @p var as a boolean flag: "1"/"on"/"true"/"yes" are true,
 * "0"/"off"/"false"/"no" are false, unset is @p dflt, anything else
 * warns (once) and is @p dflt.
 */
bool envFlag(const char *var, bool dflt);

/**
 * Parse @p var as an unsigned decimal integer. Unset returns @p dflt;
 * trailing garbage or overflow warns (once) and returns @p dflt.
 */
uint64_t envU64(const char *var, uint64_t dflt);

/**
 * Parse @p var as a non-negative decimal number (seconds-style knobs).
 * Unset returns @p dflt; malformed or negative values warn (once) and
 * return @p dflt.
 */
double envDouble(const char *var, double dflt);

/**
 * The "accepted: ..." clause the warning prints for @p choices —
 * exposed so tests can assert the message contract without scraping
 * stderr.
 */
std::string describeEnvChoices(std::initializer_list<EnvChoice> choices);

/**
 * Process-wide count of unrecognized-value warnings emitted. Tests
 * assert the once-per-variable policy through this counter.
 */
uint64_t envWarningCount();

/** Forget which variables already warned (test isolation only). */
void resetEnvWarningsForTesting();

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_ENV_HH
