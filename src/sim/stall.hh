/**
 * @file
 * Stall-cause taxonomy for the out-of-order scheduler.
 *
 * The paper locates cipher bottlenecks indirectly: Figure 5 starts
 * from the dataflow machine and re-inserts one constraint at a time,
 * comparing end-to-end IPC. The scheduler computes every event cycle
 * needed to measure those bottlenecks *directly*, so we classify each
 * cycle an instruction spends between dispatch and issue (plus the
 * frontend delays that push dispatch itself out) into exactly one
 * cause and accumulate per-cause totals. One simulation then tells
 * the same story as the paper's eight.
 *
 * The mapping onto Figure 5's exclusion models:
 *
 *   Operand        true dependence height — what DF itself exposes
 *   MemLatency     DF+Mem   (operand waits due to cache/TLB miss extra)
 *   StoreAlias     DF+Alias (loads held for prior store addresses)
 *   SboxVisibility SBOXSYNC gating (reads wait for the last sync;
 *                  syncs wait for prior store data)
 *   WindowFull     DF+Window (dispatch held for the ROB to drain)
 *   FetchRedirect  DF+Branch (fetch restart after a misprediction);
 *                  never charged, kept for the "redirect" key (always 0)
 *   IssueSlot      DF+Issue  (issue-width contention)
 *   FuAlu..FuSbox  DF+Res    (per-functional-unit contention)
 */

#ifndef CRYPTARCH_SIM_STALL_HH
#define CRYPTARCH_SIM_STALL_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace cryptarch::sim
{

/** Why an instruction spent a cycle waiting instead of issuing. */
enum class StallCause : uint8_t
{
    Operand,        ///< waiting for a source register's producer
    MemLatency,     ///< operand wait due to memory-hierarchy extra cycles
    StoreAlias,     ///< load held until prior store addresses resolved
    SboxVisibility, ///< SBOXSYNC gating (read-after-sync, sync-after-store)
    WindowFull,     ///< dispatch held: instruction windowSize back not retired
    FetchRedirect,  ///< misprediction fetch restart; never charged
    IssueSlot,      ///< issue-width contention
    FuAlu,          ///< integer-ALU contention
    FuRot,          ///< rotator/XBOX-unit contention
    FuMul,          ///< multiplier half-slot contention
    FuDcache,       ///< D-cache port contention
    FuSbox,         ///< SBox-cache port contention
};

/** Number of stall causes (size of any per-cause accumulator). */
constexpr size_t num_stall_causes =
    static_cast<size_t>(StallCause::FuSbox) + 1;

/** Per-cause cycle accumulator. */
using StallVector = std::array<uint64_t, num_stall_causes>;

/**
 * Short machine-readable cause names, indexed by StallCause. Shared by
 * the JSON emitter, the fig05 companion report and the pipeline viewer
 * so every surface prints the same vocabulary.
 */
inline constexpr std::array<const char *, num_stall_causes>
    stall_cause_names = {
        "operand",  "mem",        "alias",  "sbox_sync",
        "window",   "redirect",   "issue",  "fu_alu",
        "fu_rot",   "fu_mul",     "fu_dcache", "fu_sbox",
};

/** Name of one cause (see stall_cause_names). */
inline const char *
stallCauseName(StallCause c)
{
    return stall_cause_names[static_cast<size_t>(c)];
}

/** Cycles in @p v attributable to the span between dispatch and issue
 *  (everything except the pre-dispatch WindowFull/FetchRedirect
 *  delays). For every instruction this sums to (issue - dispatch). */
inline uint64_t
dispatchToIssueCycles(const StallVector &v)
{
    uint64_t sum = 0;
    for (size_t c = 0; c < num_stall_causes; c++)
        if (c != static_cast<size_t>(StallCause::WindowFull)
            && c != static_cast<size_t>(StallCause::FetchRedirect))
            sum += v[c];
    return sum;
}

/** Sum of the per-functional-unit contention causes in @p v. */
inline uint64_t
fuContentionCycles(const StallVector &v)
{
    return v[static_cast<size_t>(StallCause::FuAlu)]
        + v[static_cast<size_t>(StallCause::FuRot)]
        + v[static_cast<size_t>(StallCause::FuMul)]
        + v[static_cast<size_t>(StallCause::FuDcache)]
        + v[static_cast<size_t>(StallCause::FuSbox)];
}

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_STALL_HH
