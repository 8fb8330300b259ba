/**
 * @file
 * Shared helpers for the figure/table regeneration benches.
 *
 * Every bench uses the same deterministic key/IV/plaintext material
 * (seeded xorshift) and the paper's 4 KB session length unless a
 * figure calls for a sweep. Workload generation and kernel timing live
 * in the driver library (src/driver/); the helpers here are thin
 * wrappers kept for the single-model call sites. Grid-shaped benches
 * use driver::runSweep / driver::runCells directly so every kernel is
 * functionally interpreted once no matter how many timing models it
 * feeds.
 */

#ifndef CRYPTARCH_BENCH_COMMON_HH
#define CRYPTARCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/cipher.hh"
#include "driver/grids.hh"
#include "driver/json.hh"
#include "driver/sweep.hh"
#include "driver/trace.hh"
#include "driver/workload.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"

namespace cryptarch::bench
{

/** The paper's standard session length (section 4.2). */
using driver::session_bytes;

/** Deterministic key material for a cipher. */
using driver::Workload;
using driver::makeWorkload;

/**
 * Build a kernel, run it functionally, and time it on @p cfg.
 *
 * One functional interpretation per call: call sites that sweep many
 * models over the same kernel should record once and replay instead
 * (driver::recordKernelTrace / driver::runSweep).
 */
inline sim::SimStats
timeKernel(crypto::CipherId id, kernels::KernelVariant variant,
           const sim::MachineConfig &cfg, size_t bytes = session_bytes)
{
    return driver::recordKernelTrace(id, variant, bytes).replay(cfg);
}

/**
 * bytes encrypted per 1000 cycles (the paper's Figure 4 metric). The
 * byte count is a required argument: a sweep that varies session
 * length must pass the length it actually simulated, so the metric can
 * never silently divide by the default 4 KB session.
 */
inline double
bytesPerKiloCycle(uint64_t cycles, size_t bytes)
{
    return 1000.0 * static_cast<double>(bytes)
        / static_cast<double>(cycles);
}

/** All eight cipher ids in Table 1 order. */
inline std::vector<crypto::CipherId>
allCiphers()
{
    return driver::allCiphers();
}

/**
 * Render one numeric grid cell: @p value formatted with @p fmt when
 * @p ok, the marker "FAIL" otherwise — failed cells keep the grid's
 * shape instead of aborting the table.
 */
inline std::string
gridCell(bool ok, const char *fmt, double value)
{
    if (!ok)
        return "FAIL";
    char buf[48];
    std::snprintf(buf, sizeof(buf), fmt, value);
    return buf;
}

/**
 * Crash-safety options from the environment plus the benches' shared
 * command line:
 *
 *   --isolate=thread|process   worker isolation (CRYPTARCH_SWEEP_ISOLATE)
 *   --journal=PATH             checkpoint journal (CRYPTARCH_SWEEP_JOURNAL)
 *   --deadline=SECONDS         per-cell watchdog (CRYPTARCH_SWEEP_DEADLINE)
 *   --threads=N                worker count
 *
 * Flags win over the environment. Unknown arguments are ignored, so a
 * bench with its own flags (e.g. --quick) can share argv. Exits with a
 * usage message on a malformed known flag rather than silently running
 * the wrong configuration.
 */
inline driver::SweepOptions
sweepOptions(int argc, char **argv)
{
    driver::SweepOptions opts = driver::sweepOptionsFromEnv();
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--isolate=", 10) == 0) {
            const char *mode = arg + 10;
            if (std::strcmp(mode, "thread") != 0
                && std::strcmp(mode, "process") != 0) {
                std::fprintf(stderr,
                             "%s: --isolate takes 'thread' or 'process', "
                             "got '%s'\n",
                             argv[0], mode);
                std::exit(2);
            }
            opts.isolation = driver::parseSweepIsolation(
                mode, driver::SweepIsolation::Thread);
        } else if (std::strncmp(arg, "--journal=", 10) == 0) {
            opts.journalPath = arg + 10;
            if (opts.journalPath.empty()) {
                std::fprintf(stderr, "%s: --journal needs a path\n",
                             argv[0]);
                std::exit(2);
            }
        } else if (std::strncmp(arg, "--deadline=", 11) == 0) {
            char *end = nullptr;
            opts.cellDeadlineSeconds = std::strtod(arg + 11, &end);
            if (end == arg + 11 || *end != '\0'
                || !(opts.cellDeadlineSeconds > 0)) {
                std::fprintf(stderr,
                             "%s: --deadline needs positive seconds, "
                             "got '%s'\n",
                             argv[0], arg + 11);
                std::exit(2);
            }
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            const char *count = arg + 10;
            if (*count == '\0'
                || std::strspn(count, "0123456789") != std::strlen(count)) {
                std::fprintf(stderr,
                             "%s: --threads takes a count (0 = all "
                             "cores), got '%s'\n",
                             argv[0], count);
                std::exit(2);
            }
            opts.threads =
                static_cast<unsigned>(std::strtoul(count, nullptr, 10));
        }
    }
    return opts;
}

/**
 * Print every failed cell of a fail-soft sweep to stderr and return
 * the bench exit code: 0 for an all-ok grid, 1 otherwise. Benches end
 * with `return reportFailedCells(results);` so one bad cell fails the
 * run without suppressing the rest of the grid.
 */
inline int
reportFailedCells(const std::vector<driver::SweepResult> &results)
{
    size_t failed = 0;
    for (const auto &r : results) {
        if (r.ok())
            continue;
        failed++;
        std::fprintf(stderr, "FAILED cell (%s, %s, %s): [%s] %s\n",
                     crypto::cipherInfo(r.cipher).name.c_str(),
                     kernels::variantName(r.variant).c_str(),
                     r.model.c_str(), driver::cellOutcomeName(r.outcome),
                     r.message.c_str());
    }
    if (failed)
        std::fprintf(stderr, "%zu of %zu cells failed\n", failed,
                     results.size());
    return failed ? 1 : 0;
}

} // namespace cryptarch::bench

#endif // CRYPTARCH_BENCH_COMMON_HH
