/**
 * @file
 * Internal per-cell execution shared by the thread-pool sweep runner
 * (sweep.cc) and the forked process-isolation children (procpool.cc).
 * Not installed API: the contracts here (TraceGroup sharing, the group
 * plan both isolation modes schedule from, the never-throws guarantee)
 * are documented on driver::runCells.
 */

#ifndef CRYPTARCH_DRIVER_CELL_EXEC_HH
#define CRYPTARCH_DRIVER_CELL_EXEC_HH

#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "driver/sweep.hh"
#include "driver/trace.hh"

namespace cryptarch::driver::detail
{

/**
 * Cells sharing a kernel share one lazily recorded trace — or one
 * cached recording failure, so a kernel that traps or fails the oracle
 * is still interpreted exactly once, not once per model.
 */
struct TraceGroup
{
    std::once_flag once;
    RecordedTrace trace;
    std::exception_ptr recordError;
};

/**
 * Partition @p todo (indices into @p cells) into trace groups: one
 * list per distinct (cipher, variant, bytes, direction) kernel, groups
 * in order of first appearance and each group's cells in @p todo order.
 * The process pool forks one child per group; the thread pool queues
 * every group's first cell (its recording) before the remaining cells.
 */
std::vector<std::vector<uint32_t>>
planGroups(const std::vector<SweepCell> &cells,
           const std::vector<uint32_t> &todo);

/** Fill outcome/message from the exception behind @p ep. */
void classifyFailure(SweepResult &r, std::exception_ptr ep);

/** A result shell: @p cell's coordinates, no stats yet. */
SweepResult makeResultShell(const SweepCell &cell);

/**
 * Record (once per @p group) and replay @p cell into @p r; with
 * @p fullPathCheck, also as SweepOptions::fullPathCheck says. Never
 * throws: any exception — a record or replay failure, or one raised
 * while building the result — classifies the cell instead of
 * propagating.
 */
void executeCell(const SweepCell &cell, TraceGroup &group, SweepResult &r,
                 bool fullPathCheck);

} // namespace cryptarch::driver::detail

#endif // CRYPTARCH_DRIVER_CELL_EXEC_HH
