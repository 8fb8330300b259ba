/**
 * @file
 * Parallel (cipher x variant x model) sweep runner.
 *
 * A sweep is a list of cells; cells sharing a kernel (cipher, variant,
 * bytes, direction) are grouped so it is functionally interpreted exactly
 * once (recorded via RecordedTrace), then each cell replays the group's
 * trace into its own OooScheduler. Cells execute on a thread pool
 * (util::parallelFor) whose queue holds every group's first cell —
 * the one that records — ahead of the rest, so distinct kernels record
 * in parallel. Results land in slots pre-assigned by input position,
 * so output is deterministic regardless of thread count or scheduling.
 *
 * Sweeps are fail-soft: one trapping or verify-failing cell does not
 * abort the grid. Every cell gets a SweepResult with an outcome; the
 * failing cell carries the error message and zeroed stats, every other
 * cell its real timing. Bench drivers render partial grids with the
 * failed cells marked and exit nonzero.
 *
 * Execution is isolation-selectable (SweepOptions, which the benches
 * fill from --isolate=/--journal=/--deadline=/--threads=; see
 * bench/common.hh, whose --audit turns on the process-wide
 * sim::setSimAudit instead): the default Thread mode runs cells
 * on that in-process pool, while Process mode forks one short-lived
 * child per group batch that streams back one checksummed journal
 * record per cell (src/driver/procpool.hh). Both modes schedule from
 * the same group plan (detail::planGroups). Process mode survives
 * host-level faults the thread pool cannot: a child that dies on a
 * signal marks only its in-flight cell `crashed`, a child past its
 * per-cell watchdog deadline is killed and the cell marked
 * `timed_out`, and the rest of its batch is requeued for a new child.
 * Either mode can additionally record an append-only checkpoint
 * journal so a killed sweep resumes without redoing finished cells and
 * still emits byte-identical BENCH_*.json artifacts.
 */

#ifndef CRYPTARCH_DRIVER_SWEEP_HH
#define CRYPTARCH_DRIVER_SWEEP_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "driver/trace.hh"
#include "sim/config.hh"

namespace cryptarch::driver
{

/** One point of the sweep grid. */
struct SweepCell
{
    crypto::CipherId cipher{};
    kernels::KernelVariant variant{};
    sim::MachineConfig model;
    size_t bytes = session_bytes;
    kernels::KernelDirection direction = kernels::KernelDirection::Encrypt;
};

/** How a cell's record/replay ended. */
enum class CellOutcome : uint8_t
{
    Ok,           ///< real stats
    Trapped,      ///< the functional machine raised an isa::Trap
    VerifyFailed, ///< the record-time oracle rejected the output
    Error,        ///< anything else (kernel build, bad parameters, ...)
    Crashed,      ///< worker process died (signal or unexpected exit)
    TimedOut,     ///< cell exceeded the watchdog deadline; worker killed
    // New values append (journal payloads carry the numeric value).
    Rejected,     ///< config validation refused the cell's machine model
    Stalled,      ///< the scheduler's forward-progress watchdog fired
};

/** Number of cell outcomes (size of any per-outcome accumulator). */
constexpr size_t num_cell_outcomes =
    static_cast<size_t>(CellOutcome::Stalled) + 1;

/** Stable outcome name ("ok", "trapped", ..., "rejected", "stalled"). */
const char *cellOutcomeName(CellOutcome outcome);

/** Timing result of one cell, tagged with its coordinates. */
struct SweepResult
{
    crypto::CipherId cipher{};
    kernels::KernelVariant variant{};
    std::string model;
    size_t bytes = session_bytes;
    kernels::KernelDirection direction = kernels::KernelDirection::Encrypt;
    sim::SimStats stats;

    CellOutcome outcome = CellOutcome::Ok;
    /** The error's what() string; empty when outcome is Ok. */
    std::string message;

    /**
     * Process isolation's slot index of the child that held the cell
     * when it failed, -1 otherwise. Only host-level failures (Crashed,
     * TimedOut, corrupt-record Error) carry attribution — healthy
     * cells keep -1 in every mode, so ok-grid artifacts stay
     * byte-identical across thread counts, isolation modes, and
     * kill-and-resume reruns.
     */
    int worker = -1;

    bool ok() const { return outcome == CellOutcome::Ok; }
};

/** Where sweep cells execute (see the file comment). */
enum class SweepIsolation : uint8_t
{
    Thread,  ///< in-process thread pool (the historical behavior)
    Process, ///< one forked child per group batch, watchdog-supervised
};

/** A fault a chaos point fires (see SweepOptions::chaos). */
enum class ChaosAction : uint8_t
{
    Crash, ///< raise SIGSEGV
    Abort, ///< std::abort()
    Exit,  ///< _exit(3)
    Hang,  ///< block forever (watchdog food)
};

/** Fire @p action just before cell @p cell, an index into the cells. */
struct ChaosPoint
{
    uint32_t cell = 0;
    ChaosAction action = ChaosAction::Crash;
};

/**
 * Crash-safety knobs for runCells/runSweep. Defaults reproduce the
 * historical thread-pool behavior exactly; benches opt in through
 * their shared command-line flags (bench::sweepOptions).
 */
struct SweepOptions
{
    SweepIsolation isolation = SweepIsolation::Thread;
    /** Worker threads or processes; 0 = hardware concurrency. */
    unsigned threads = 0;
    /**
     * Per-cell watchdog deadline, process isolation only: a worker
     * that produces no result for this long is SIGKILLed and the
     * in-flight cell marked TimedOut. <= 0 selects the default
     * (default_cell_deadline_seconds). Thread mode has no watchdog —
     * a hung cell there would leave the pool wedged either way.
     */
    double cellDeadlineSeconds = 0;
    /**
     * Append-only checkpoint journal path; empty = none. Completed
     * cells are recorded as they finish (either isolation mode); a
     * rerun against the same grid skips them and emits byte-identical
     * results. Truncated or corrupted journals are rejected with a
     * typed error (procpool.hh JournalError) and the sweep falls back
     * to a fresh run, rewriting the journal.
     */
    std::string journalPath;
    /**
     * Chaos fault points, process isolation only: the child that runs
     * cell `cell` of runCells' cells (runSweep's dense order) fires
     * `action` before running it. Only the chaos harness and tests set
     * them; a journaled cell is never re-dispatched, so it never fires.
     */
    std::vector<ChaosPoint> chaos;
    /**
     * Replay each cell whose replay fast-forwarded (sim::IterationMemo)
     * once more on the full per-instruction path, and fail it as an
     * error when the two SimStats differ. configfuzz sets it.
     */
    bool fullPathCheck = false;
};

/** Default watchdog deadline when SweepOptions leaves it unset. */
constexpr double default_cell_deadline_seconds = 300.0;

/** Stays only for perfbench's report; always the defaults. */
inline SweepOptions sweepOptionsFromEnv() { return {}; }

/** A dense grid: every cipher x every variant x every model. */
struct SweepSpec
{
    std::vector<crypto::CipherId> ciphers;
    std::vector<kernels::KernelVariant> variants;
    std::vector<sim::MachineConfig> models;
    size_t bytes = session_bytes;
};

/**
 * Execute @p cells in parallel on @p threads workers (0 = hardware
 * concurrency). Returns one result per cell, in cell order. Each
 * distinct (cipher, variant, bytes, direction) kernel is interpreted
 * exactly once across the whole call — including when recording fails:
 * traps and oracle rejections are deterministic, so the failure is
 * cached and fanned out to every cell of the group. Recording and
 * replay are deterministic, so nothing is retried: every failure is
 * classified once, and any exception escaping a cell (including
 * failures while building its result) marks that cell instead of
 * terminating the sweep. Never throws for per-cell failures.
 *
 * Runs with the default SweepOptions (thread isolation, no journal);
 * @p threads, when nonzero, sets the worker count. The SweepOptions
 * overload takes full control.
 */
std::vector<SweepResult> runCells(const std::vector<SweepCell> &cells,
                                  unsigned threads = 0);

/** As above with explicit crash-safety options. */
std::vector<SweepResult> runCells(const std::vector<SweepCell> &cells,
                                  const SweepOptions &options);

/**
 * Execute the dense grid of @p spec. Results are ordered cipher-major,
 * then variant, then model: index = (ci * #variants + vi) * #models + mi.
 */
std::vector<SweepResult> runSweep(const SweepSpec &spec);

/** As above with explicit crash-safety options. */
std::vector<SweepResult> runSweep(const SweepSpec &spec,
                                  const SweepOptions &options);

/**
 * First result matching (cipher, variant, model name, direction).
 * Throws std::out_of_range when the sweep has no such cell.
 */
const SweepResult &findResult(const std::vector<SweepResult> &results,
                              crypto::CipherId cipher,
                              kernels::KernelVariant variant,
                              std::string_view model,
                              kernels::KernelDirection direction
                                  = kernels::KernelDirection::Encrypt);

} // namespace cryptarch::driver

#endif // CRYPTARCH_DRIVER_SWEEP_HH
