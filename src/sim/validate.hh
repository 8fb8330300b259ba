/**
 * @file
 * Typed MachineConfig validation, canonicalization, and the simulator
 * hardening policies (validation / invariant audit / progress budget).
 *
 * MachineConfig is ~30 unchecked numeric fields, and the design-space
 * work (ROADMAP item 5) generates configs nobody hand-audited. This
 * module is the admission layer: validateConfig() classifies every way
 * a config can break the simulator into a ConfigError taxonomy,
 * canonicalizeConfig() repairs the benign cases (non-power-of-two
 * predictor/TLB entry counts round down, with a one-time warning), and
 * the scheduler constructor routes through hardenedConfig() so a bad
 * config becomes a typed ConfigRejected at construction instead of
 * a divide-by-zero, an unbounded allocation, or a livelocked issue
 * loop deep inside a sweep cell.
 *
 * The taxonomy:
 *
 *   ZeroGeometry         a structural count that must be nonzero is 0
 *                        (cache blockBytes/assoc/sizeBytes, TLB
 *                        entries/assoc, pageBytes, predictorEntries)
 *   BadGeometry          nonzero but internally inconsistent (cache
 *                        smaller than one set, size not divisible by
 *                        blockBytes*assoc, TLB entries % assoc != 0)
 *   NonPow2              a count the indexing path requires to be a
 *                        power of two is not (raw validation only;
 *                        canonicalizeConfig repairs these)
 *   InconsistentLatency  latency relations that cannot describe a real
 *                        machine (a 0-cycle functional unit, L2 hit
 *                        slower than memory, 32-bit multiply slower
 *                        than 64-bit)
 *   Oversized            structurally valid but big enough to take the
 *                        host down (multi-gigabyte line arrays,
 *                        window/latency values that degenerate the
 *                        cycle bookkeeping)
 *
 * Policies (all overridable programmatically, read once from the
 * environment at static init — worker processes fork from the parent,
 * so setters are the reliable way to flip policy for a child sweep):
 *
 *   CRYPTARCH_SIM_VALIDATE        on (default) | off
 *   CRYPTARCH_SIM_AUDIT           off (default) | on: per-retired-
 *                                 instruction invariant auditing
 *   CRYPTARCH_SIM_PROGRESS_BUDGET base FU-retry budget before the
 *                                 scheduler's forward-progress watchdog
 *                                 traps (0/unset = auto-scaled)
 */

#ifndef CRYPTARCH_SIM_VALIDATE_HH
#define CRYPTARCH_SIM_VALIDATE_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace cryptarch::sim
{

/** Classification of a rejected MachineConfig (see file comment). */
enum class ConfigErrorKind : uint8_t
{
    ZeroGeometry,
    BadGeometry,
    NonPow2,
    InconsistentLatency,
    Oversized,
};

/** Stable short name ("zero-geometry", "non-pow2", ...). */
const char *configErrorKindName(ConfigErrorKind kind);

/** One validation failure: the kind, the offending field, and why. */
struct ConfigError
{
    ConfigErrorKind kind{};
    std::string field;
    std::string detail;

    /** "config error [kind] field: detail" — the ConfigRejected
     *  what() string. */
    std::string message() const;
};

/**
 * Validate @p cfg without modifying it. Returns the first error found
 * (field-declaration order), or nullopt for an admissible config.
 * Validation is raw: a canonicalizable non-pow2 count is still
 * reported (as NonPow2) — construction paths canonicalize first.
 */
std::optional<ConfigError> validateConfig(const MachineConfig &cfg);

/** One repair canonicalizeConfig made. */
struct ConfigAdjustment
{
    std::string field;
    unsigned from = 0;
    unsigned to = 0;
};

/**
 * Repair the benign deviations of @p cfg: predictorEntries and
 * dtlbEntries that are not powers of two round *down* to one (the
 * indexing fast path masks; rounding up would claim capacity the
 * request never asked for). Every repair emits a one-time warning per
 * field per process and is appended to @p adjustments when given.
 * Fields that are zero or already powers of two pass through
 * untouched, so every preset is a fixed point of this function.
 */
MachineConfig
canonicalizeConfig(const MachineConfig &cfg,
                   std::vector<ConfigAdjustment> *adjustments = nullptr);

/**
 * A config refused admission. Derives std::invalid_argument so generic
 * catch sites see a readable message; catch ConfigRejected for the
 * structured ConfigError (the sweep layer maps it to the `rejected`
 * cell outcome).
 */
class ConfigRejected : public std::invalid_argument
{
  public:
    explicit ConfigRejected(ConfigError err);

    const ConfigError &error() const { return err_; }

  private:
    ConfigError err_;
};

/**
 * A runtime invariant-audit violation (CRYPTARCH_SIM_AUDIT=1): the
 * scheduler's cycle accounting contradicted itself on a retired
 * instruction. std::logic_error — this is a simulator bug, not a
 * workload or config failure.
 */
class AuditError : public std::logic_error
{
  public:
    AuditError(const std::string &invariant, uint64_t seq, uint32_t pc,
               const std::string &detail);

    const std::string &invariant() const { return invariant_; }
    uint64_t seq() const { return seq_; }
    uint32_t pc() const { return pc_; }

  private:
    std::string invariant_;
    uint64_t seq_;
    uint32_t pc_;
};

/** How a scheduler treats the config it is handed. */
enum class ConfigPolicy : uint8_t
{
    Validate, ///< canonicalize, then reject invalid (the default)
    Trusted,  ///< take the config verbatim (tests probing raw behavior)
};

/**
 * The construction-time admission pipeline: canonicalize @p cfg and
 * throw ConfigRejected if validation still fails. Trusted policy — or
 * validation disabled process-wide — returns @p cfg verbatim.
 */
MachineConfig hardenedConfig(const MachineConfig &cfg, ConfigPolicy policy);

/** Config validation at scheduler construction (default on). */
bool configValidationEnabled();
void setConfigValidation(bool enabled);

/** Per-retired-instruction invariant auditing (default off). */
bool simAuditEnabled();
void setSimAudit(bool enabled);

/**
 * Base FU-retry budget of the forward-progress watchdog; 0 selects the
 * auto-scaled default (window size + latency chain, see pipeline.cc).
 */
uint64_t progressBudgetOverride();
void setProgressBudgetOverride(uint64_t budget);

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_VALIDATE_HH
