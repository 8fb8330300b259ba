/**
 * @file
 * Typed MachineConfig validation and the simulator hardening policies
 * (invariant audit / progress budget).
 *
 * MachineConfig is ~30 unchecked numeric fields, and generated configs
 * (configfuzz) reach it without a hand audit. This module is the
 * admission layer: validateConfig() classifies every way a config can
 * break the simulator into a ConfigError taxonomy, and the scheduler
 * constructor routes through hardenedConfig() so a bad config becomes
 * a typed ConfigRejected at construction instead of a divide-by-zero,
 * an unbounded allocation, or a livelocked issue loop deep inside a
 * sweep cell. An admitted config is modelled as given: the predictor
 * and every cache, the DTLB included, index any entry or set count.
 * Validation is always on, and Cache construction applies the same
 * geometry rule (checkGeometry()).
 *
 * The taxonomy:
 *
 *   ZeroGeometry         a structural count that must be nonzero is 0
 *                        (cache blockBytes/assoc/sizeBytes, TLB
 *                        entries/assoc, pageBytes, predictorEntries)
 *   BadGeometry          nonzero but internally inconsistent (cache
 *                        smaller than one set, size not divisible by
 *                        blockBytes*assoc, TLB entries % assoc != 0)
 *   InconsistentLatency  latency relations that cannot describe a real
 *                        machine (a 0-cycle functional unit, L2 hit
 *                        slower than memory, 32-bit multiply slower
 *                        than 64-bit)
 *   Oversized            structurally valid but big enough to take the
 *                        host down (multi-gigabyte line arrays,
 *                        window/latency values that degenerate the
 *                        cycle bookkeeping)
 *
 * Policies (worker processes fork from the parent, so the setters are
 * the reliable way to flip policy for a child sweep):
 *
 *   audit            per-retired-instruction invariant auditing, off
 *                    unless a bench's --audit flag (or a test) sets it
 *   progress budget  base FU-retry budget of the forward-progress
 *                    watchdog; 0 = auto-scaled, only tests set another
 */

#ifndef CRYPTARCH_SIM_VALIDATION_HH
#define CRYPTARCH_SIM_VALIDATION_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "sim/config.hh"

namespace cryptarch::sim
{

/** Classification of a rejected MachineConfig (see file comment). */
enum class ConfigErrorKind : uint8_t
{
    ZeroGeometry,
    BadGeometry,
    InconsistentLatency,
    Oversized,
};

/** Stable short name ("zero-geometry", "oversized", ...). */
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
 */
std::optional<ConfigError> validateConfig(const MachineConfig &cfg);

/**
 * The geometry rule of one cache named @p name: every count nonzero,
 * the capacity a whole number of sets, and at most the line cap.
 * validateConfig() checks l1d and l2 with it, and the Cache
 * constructor every geometry it is handed.
 */
std::optional<ConfigError> checkGeometry(const char *name,
                                         const CacheGeometry &g);

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
 * A runtime invariant-audit violation (setSimAudit(true)): the
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

/**
 * The construction-time admission check: @p cfg unchanged, or
 * ConfigRejected if validation fails.
 */
MachineConfig hardenedConfig(const MachineConfig &cfg);

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

#endif // CRYPTARCH_SIM_VALIDATION_HH
