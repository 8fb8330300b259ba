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

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
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
#include "sim/validate.hh"

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
 * Parse @p text as a decimal count no larger than @p max into @p n.
 * False on an empty string, anything but digits (a sign, a suffix) or
 * a value past @p max, overflow included.
 */
inline bool
parseCount(const char *text, unsigned long long max, unsigned long long &n)
{
    errno = 0;
    n = std::strtoull(text, nullptr, 10);
    return *text && std::strspn(text, "0123456789") == std::strlen(text)
        && errno != ERANGE && n <= max;
}

/**
 * Print the benches' shared usage error, "ARGV0: FLAG takes TAKES, got
 * 'GOT'", and exit 2.
 */
[[noreturn]] inline void
usageExit(const char *argv0, const char *flag, const char *takes,
          const char *got)
{
    std::fprintf(stderr, "%s: %s takes %s, got '%s'\n", argv0, flag, takes,
                 got);
    std::exit(2);
}

/** The flags bench::sweepOptions parses, as rejectUnknownArgs matches
 *  them. */
inline constexpr const char *sweep_flags[] = {
    "--isolate=", "--journal=", "--deadline=", "--threads=", "--audit"};

/**
 * Exit 2 with a usage message on the first argument that is neither
 * one of the bench's own flags @p own nor, when @p sweep, one of
 * sweep_flags. A flag matches exactly or, when it ends in '=', as a
 * prefix; the bench parses its own flags itself. Every bench calls it
 * (the grid benches through sweepOptions) before it runs, so a
 * misspelt flag exits 2 instead of running the wrong configuration
 * (`faultinject --quik` would otherwise run the full mode).
 */
inline void
rejectUnknownArgs(int argc, char **argv,
                  std::initializer_list<const char *> own = {},
                  bool sweep = false)
{
    auto matches = [](const char *arg, const char *flag) {
        const size_t n = std::strlen(flag);
        return n && flag[n - 1] == '=' ? std::strncmp(arg, flag, n) == 0
                                       : std::strcmp(arg, flag) == 0;
    };
    for (int i = 1; i < argc; i++) {
        const char *arg = argv[i];
        bool known = false;
        for (const char *flag : own)
            known = known || matches(arg, flag);
        if (sweep)
            for (const char *flag : sweep_flags)
                known = known || matches(arg, flag);
        if (known)
            continue;
        std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s",
                     argv[0], arg, argv[0]);
        if (sweep)
            std::fprintf(stderr,
                         " [--isolate=thread|process] [--journal=PATH] "
                         "[--deadline=SECONDS] [--threads=N] [--audit]");
        for (const char *flag : own)
            std::fprintf(stderr, " [%s]", flag);
        std::fprintf(stderr, "\n");
        std::exit(2);
    }
}

/**
 * Sweep options from the benches' shared command line, the one place
 * a sweep's settings come from:
 *
 *   --isolate=thread|process   worker isolation (default thread)
 *   --journal=PATH             checkpoint journal (default none)
 *   --deadline=SECONDS         per-cell watchdog, process isolation only
 *   --threads=N                worker count (0 = all cores)
 *   --audit                    per-instruction invariant auditor, which
 *                              also checks every fast-forward hit
 *                              against the full core
 *
 * --audit is not a SweepOptions field: it calls the process-wide
 * sim::setSimAudit(true), which forked workers inherit and which also
 * covers the replays a bench makes outside the sweep (fig06's Blowfish
 * setup kernel). Without it the auditor is left as it was.
 *
 * A bench with flags of its own names them in @p own (see
 * rejectUnknownArgs); it parses them itself. Exits 2 with a usage
 * message on any other argument and on a malformed sweep flag, rather
 * than silently running the wrong configuration (a misspelt --audit
 * would otherwise check nothing).
 */
inline driver::SweepOptions
sweepOptions(int argc, char **argv,
             std::initializer_list<const char *> own = {})
{
    rejectUnknownArgs(argc, argv, own, true);
    auto usage = [&](const char *flag, const char *takes, const char *got) {
        usageExit(argv[0], flag, takes, got);
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
            unsigned long long n = 0;
            if (!parseCount(arg + 10, UINT_MAX, n))
                usage("--threads", "a count (0 = all cores)", arg + 10);
            opts.threads = static_cast<unsigned>(n);
        } else if (std::strcmp(arg, "--audit") == 0) {
            sim::setSimAudit(true);
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
