/**
 * @file
 * Seeded fault-injection harness.
 *
 * Injects deterministic, seeded bit flips into machine registers and
 * data memory mid-run, then classifies how (or whether) the
 * verification layer caught each one:
 *
 *   DetectedTrap    the machine raised an isa::Trap (corrupt pointer
 *                   walked out of memory, pc ran away, ...)
 *   DetectedOracle  execution completed but the record-time oracle
 *                   caught the wrong ciphertext
 *   Masked          the fault changed nothing the checks observe
 *                   (dead register, stale byte, output unchanged)
 *
 * Detection coverage — the fraction of injections not masked — is the
 * robustness analogue of the simspeed trajectory: bench/faultinject
 * sweeps this grid and emits BENCH_faults.json.
 */

#ifndef CRYPTARCH_VERIFY_FAULTS_HH
#define CRYPTARCH_VERIFY_FAULTS_HH

#include <cstdint>
#include <string>

#include "isa/machine.hh"
#include "kernels/kernel.hh"

namespace cryptarch::verify
{

/** Where an injection lands. */
enum class FaultSite : uint8_t
{
    Register, ///< one architectural register, one bit, mid-run
    Memory,   ///< one data-memory byte in a kernel-touched span
};

/** Stable site name ("register", "memory"). */
const char *faultSiteName(FaultSite site);

/** How (or whether) the checks caught an injection. */
enum class FaultOutcome : uint8_t
{
    DetectedTrap,
    DetectedOracle,
    Masked,
};

/** Stable outcome name ("trap", "oracle", "masked"). */
const char *faultOutcomeName(FaultOutcome outcome);

/** One classified injection. */
struct InjectionResult
{
    FaultOutcome outcome{};
    /** The trap/oracle error message, empty when masked. */
    std::string detail;
};

/**
 * Run the (cipher, variant) encryption kernel over the standard
 * deterministic workload with one seeded fault at @p site, and
 * classify the result. @p seed selects the fault's location and bit
 * deterministically; equal seeds reproduce identical injections.
 */
InjectionResult injectAndClassify(crypto::CipherId cipher,
                                  kernels::KernelVariant variant,
                                  FaultSite site, uint64_t seed,
                                  size_t session_bytes);

/** Aggregated classification counts over a run of injections. */
struct FaultTally
{
    uint64_t injections = 0;
    uint64_t detectedTrap = 0;
    uint64_t detectedOracle = 0;
    uint64_t masked = 0;

    void add(FaultOutcome outcome);

    /** Fraction of injections any check caught. */
    double
    coverage() const
    {
        return injections
            ? 1.0 - static_cast<double>(masked) / injections
            : 0.0;
    }
};

/**
 * Inject @p count seeded faults (seeds @p seed0 .. @p seed0+count-1)
 * at @p site into the (cipher, variant) kernel and tally the
 * classifications.
 */
FaultTally injectionSweep(crypto::CipherId cipher,
                          kernels::KernelVariant variant, FaultSite site,
                          uint64_t seed0, unsigned count,
                          size_t session_bytes);

} // namespace cryptarch::verify

#endif // CRYPTARCH_VERIFY_FAULTS_HH
