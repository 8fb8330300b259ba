/**
 * @file
 * Shared helpers for the figure/table regeneration benches.
 *
 * Every bench uses the same deterministic key/IV/plaintext material
 * (seeded xorshift) and the paper's 4 KB session length unless a
 * figure calls for a sweep. Workload generation lives in the driver
 * library (src/driver/) and is re-exported here. Benches time kernels
 * with driver::runSweep / driver::runCells, so every kernel is
 * functionally interpreted once no matter how many timing models it
 * feeds; the helpers below share their flags, grid cells and exit code.
 */

#ifndef CRYPTARCH_BENCH_COMMON_HH
#define CRYPTARCH_BENCH_COMMON_HH

#include <climits>
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
using driver::allCiphers;

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
 * Sweep options from the benches' shared command line, the one place
 * a sweep's settings come from:
 *
 *   --isolate=thread|process   worker isolation (default thread)
 *   --journal=PATH             checkpoint journal (default none)
 *   --deadline=SECONDS         per-cell watchdog, process isolation only
 *   --threads=N                worker count (0 = all cores)
 *
 * Unknown arguments are ignored, so a bench with its own flags (e.g.
 * --quick) can share argv. Exits 2 with a usage message on a malformed
 * known flag rather than silently running the wrong configuration.
 */
inline driver::SweepOptions
sweepOptions(int argc, char **argv)
{
    auto usage = [&](const char *flag, const char *takes, const char *got) {
        std::fprintf(stderr, "%s: %s takes %s, got '%s'\n", argv[0], flag,
                     takes, got);
        std::exit(2);
    };
    driver::SweepOptions opts;
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--isolate=", 10) == 0) {
            const char *mode = arg + 10;
            const bool process = std::strcmp(mode, "process") == 0;
            if (!process && std::strcmp(mode, "thread") != 0)
                usage("--isolate", "'thread' or 'process'", mode);
            opts.isolation = process ? driver::SweepIsolation::Process
                                     : driver::SweepIsolation::Thread;
        } else if (std::strncmp(arg, "--journal=", 10) == 0) {
            opts.journalPath = arg + 10;
            if (opts.journalPath.empty())
                usage("--journal", "a path", "");
        } else if (std::strncmp(arg, "--deadline=", 11) == 0) {
            char *end = nullptr;
            opts.cellDeadlineSeconds = std::strtod(arg + 11, &end);
            if (end == arg + 11 || *end != '\0'
                || !(opts.cellDeadlineSeconds > 0))
                usage("--deadline", "positive seconds", arg + 11);
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            const char *count = arg + 10;
            // Overflow saturates at ULLONG_MAX, which the bound rejects.
            const unsigned long long n = std::strtoull(count, nullptr, 10);
            if (*count == '\0'
                || std::strspn(count, "0123456789") != std::strlen(count)
                || n > UINT_MAX)
                usage("--threads", "a count (0 = all cores)", count);
            opts.threads = static_cast<unsigned>(n);
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
        std::fprintf(stderr, "FAILED cell (%s, %s, %s%s): [%s] %s\n",
                     crypto::cipherInfo(r.cipher).name.c_str(),
                     kernels::variantName(r.variant).c_str(),
                     r.model.c_str(),
                     r.direction == kernels::KernelDirection::Decrypt
                         ? ", decrypt"
                         : "",
                     driver::cellOutcomeName(r.outcome), r.message.c_str());
    }
    if (failed)
        std::fprintf(stderr, "%zu of %zu cells failed\n", failed,
                     results.size());
    return failed ? 1 : 0;
}

} // namespace cryptarch::bench

#endif // CRYPTARCH_BENCH_COMMON_HH
