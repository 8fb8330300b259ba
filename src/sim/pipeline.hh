/**
 * @file
 * The out-of-order timing scheduler.
 *
 * OooScheduler consumes the dynamic instruction stream from the
 * functional Machine (it is an isa::TraceSink) and computes, for each
 * instruction, the cycle at which it fetches, dispatches, issues,
 * completes and retires under the configured microarchitecture — the
 * same dependence-and-resource-driven modeling sim-outorder performs,
 * expressed as an online scheduling recurrence:
 *
 *   fetch    <- fetch bandwidth, taken-branch block limits,
 *               branch-misprediction redirects
 *   dispatch <- fetch + frontend depth, window occupancy (the
 *               instruction windowSize earlier must have retired)
 *   ready    <- operand readiness, load/store alias ordering,
 *               SBOXSYNC visibility
 *   issue    <- first cycle >= ready with an issue slot AND a free
 *               functional unit (ALU, rotator/XBOX, multiplier
 *               half-slots, D-cache port or SBox cache port)
 *   complete <- issue + operation latency (+ memory hierarchy extra)
 *   retire   <- in order, retire-width per cycle
 *
 * All constraints can be disabled individually (capacity 0 = unlimited,
 * perfect flags), which yields the paper's DF machine and the Figure 5
 * single-bottleneck models.
 */

#ifndef CRYPTARCH_SIM_PIPELINE_HH
#define CRYPTARCH_SIM_PIPELINE_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "isa/machine.hh"
#include "sim/branch_pred.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/resource.hh"
#include "sim/stall.hh"
#include "sim/validate.hh"

namespace cryptarch::sim
{

/** Timing results of one simulated run. */
struct SimStats
{
    std::string model;
    uint64_t instructions = 0;
    Cycle cycles = 0;

    uint64_t condBranches = 0;
    uint64_t mispredicts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t sboxAccesses = 0;   ///< non-aliased SBOX reads
    uint64_t sboxCacheHits = 0;  ///< SBox sector-cache hits (4W+/8W+)
    /** SBox sector-cache accesses/misses summed over all caches, so
     *  hit rates are computable from the report alone. */
    uint64_t sboxCacheAccesses = 0;
    uint64_t sboxCacheMisses = 0;
    /** Per-SBox-cache access/miss totals (empty without SBox caches). */
    std::vector<CacheStats> sboxCaches;

    CacheStats l1;
    CacheStats l2;
    CacheStats tlb;

    /** Dynamic instruction count per functional-unit class. */
    std::array<uint64_t, isa::num_op_classes> classCounts{};

    /** Cycles instructions spent stalled, by cause (sim/stall.hh). */
    StallVector stallCycles{};
    /** The same cycles, broken down by the stalling OpClass. */
    std::array<StallVector, isa::num_op_classes> stallByClass{};

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }

    /** Total attributed stall cycles, every cause. */
    uint64_t
    totalStallCycles() const
    {
        uint64_t sum = 0;
        for (uint64_t v : stallCycles)
            sum += v;
        return sum;
    }
};

/**
 * Pipeline timeline sample for one instruction — the data behind a
 * SimpleView-style stall visualization (the paper's methodology for
 * locating cipher bottlenecks).
 */
struct TimelineEntry
{
    uint64_t seq = 0;
    uint32_t pc = 0;
    isa::Opcode op = isa::Opcode::Halt;
    Cycle fetch = 0;
    Cycle dispatch = 0;
    Cycle ready = 0;
    Cycle issue = 0;
    Cycle complete = 0;
    Cycle retire = 0;
    /**
     * Per-cause stall cycles of this instruction. The causes other
     * than WindowFull/FetchRedirect sum exactly to (issue - dispatch);
     * WindowFull and FetchRedirect are dispatch delays charged only
     * beyond every other readiness constraint and only at the in-order
     * dispatch frontier, so frontend run-ahead is never counted as a
     * machine stall (see DESIGN.md on stall accounting).
     */
    StallVector stall{};
};

/** Trace-driven out-of-order core model. `final` lets the replay hot
 *  loop devirtualize emit() when feeding a concrete scheduler. */
class OooScheduler final : public isa::TraceSink
{
  public:
    /**
     * Construct for @p config. Under the default policy the config is
     * canonicalized (validate.hh) and rejected with a typed
     * ConfigRejected when invalid; ConfigPolicy::Trusted skips the
     * admission layer (tests probing raw degenerate behavior).
     *
     * Even trusted schedulers keep the forward-progress watchdog: an
     * issue retry loop that exceeds its budget (auto-scaled from the
     * window size and latency chain, base overridable via
     * CRYPTARCH_SIM_PROGRESS_BUDGET) throws a typed
     * isa::Trap{NoProgress} carrying the stalled-frontier snapshot
     * instead of spinning forever.
     */
    explicit OooScheduler(const MachineConfig &config,
                          ConfigPolicy policy = ConfigPolicy::Validate);

    void emit(const isa::DynInst &inst) override;

    /** Final statistics; call after the trace is fully emitted. */
    SimStats finish();

    /**
     * Record the pipeline timeline of dynamic instructions
     * [@p first, @p first + @p count) for later visualization.
     */
    void
    recordTimeline(uint64_t first, uint64_t count)
    {
        timelineFirst = first;
        timelineCount = count;
        // Reserve the full window up front so a pipeline_view run
        // never regrows the timeline mid-emit (allocation jitter would
        // sit right on the simulated hot path it is visualizing).
        // Callers may pass a huge count as a "rest of the run"
        // sentinel, so cap the eager reservation at 1M entries; longer
        // windows fall back to amortized growth past that point.
        timeline.reserve(count < (1u << 20) ? count : (1u << 20));
    }

    const std::vector<TimelineEntry> &timelineEntries() const
    {
        return timeline;
    }

  private:
    Cycle fetchOf();
    /**
     * Schedule @p inst at the first cycle >= @p ready with an issue
     * slot and a free functional unit. Returns the issue cycle and
     * sets @p lat to the operation latency and @p memExtra to the
     * memory-hierarchy portion of it (cycles beyond a hit). Every
     * probed cycle that loses the joint reservation race is charged
     * to the losing constraint in @p stall, with the cause's bit set
     * in @p touched (emit()'s accumulation pass walks only those).
     */
    Cycle issueOf(const isa::DynInst &inst, Cycle ready, unsigned &lat,
                  unsigned &memExtra, StallVector &stall,
                  unsigned &touched);
    /** Single prune entry point: drop bookkeeping below @p horizon in
     *  every per-cycle resource, the SBox-cache ports included. */
    void pruneResources(Cycle horizon);
    /** Forward-progress watchdog trip: build and throw the typed
     *  isa::Trap{NoProgress} with the stalled-frontier snapshot. */
    [[noreturn]] void throwNoProgress(const isa::DynInst &inst,
                                      Cycle ready, Cycle probed,
                                      StallCause fuCause,
                                      uint64_t slotWait,
                                      uint64_t fuWait) const;
    /** CRYPTARCH_SIM_AUDIT invariant checks on one retired
     *  instruction; throws AuditError on the first violation. */
    void auditRetired(const isa::DynInst &inst, Cycle fetch,
                      Cycle dispatch, Cycle ready, Cycle issue,
                      Cycle complete, Cycle retire,
                      const StallVector &stall) const;

    MachineConfig cfg;
    SimStats stats;

    // Hardening state: the watchdog's base FU-retry budget (the
    // per-instruction allowance grows with instIndex, see issueOf) and
    // whether the per-retired-instruction invariant auditor runs.
    uint64_t progressBudgetBase = 0;
    bool auditing = false;

    // Register scoreboard: completion cycle of the latest writer.
    std::array<Cycle, isa::num_regs> regReady{};
    // Memory-hierarchy extra cycles inside the latest writer's latency
    // (for attributing operand waits to MemLatency vs. Operand).
    std::array<unsigned, isa::num_regs> regMemExtra{};

    // Frontend state.
    Cycle fetchCycle = 0;
    unsigned fetchedThisCycle = 0;
    unsigned blocksThisCycle = 0;
    bool nextCycleFetch = false;
    // Fetch delay from the latest misprediction redirect, charged to
    // the next instruction that fetches.
    Cycle pendingRedirectStall = 0;

    // Memory ordering.
    Cycle storeAddrFrontier = 0; ///< latest known store address-resolve
    Cycle storeDataFrontier = 0; ///< latest store completion
    Cycle syncFrontier = 0;      ///< last SBOXSYNC completion

    // Resources.
    CycleResource issueSlots;
    CycleResource retireSlots;
    CycleResource aluUnits;
    CycleResource rotUnits;
    CycleResource mulSlots;
    CycleResource dcachePorts;
    std::vector<CycleResource> sboxPorts;
    // sboxCaches.size()-1 when that is a power of two: table-to-cache
    // selection by mask instead of a modulo per SBOX read.
    unsigned sboxIndexMask = 0;

    // Window occupancy ring: retire cycle of instruction i - windowSize.
    std::vector<Cycle> retireRing;
    uint64_t instIndex = 0;
    // Cursor into retireRing == instIndex % windowSize, maintained
    // incrementally (a modulo per emitted instruction is measurable).
    size_t ringPos = 0;
    Cycle lastRetire = 0;
    Cycle maxComplete = 0;
    // Dispatch frontier (dispatch is in order): used to charge each
    // window-stalled dispatch cycle to exactly one instruction.
    Cycle lastDispatch = 0;

    BranchPredictor predictor;
    MemoryHierarchy memory;
    std::vector<SboxCache> sboxCaches;

    uint64_t timelineFirst = 0;
    uint64_t timelineCount = 0;
    std::vector<TimelineEntry> timeline;
};

/**
 * Convenience wrapper: functionally execute @p program on @p machine
 * while timing it on @p config. @p policy is the scheduler's config
 * admission policy (see OooScheduler).
 */
SimStats simulate(isa::Machine &machine, const isa::Program &program,
                  const MachineConfig &config,
                  uint64_t max_insts = 1ull << 32,
                  ConfigPolicy policy = ConfigPolicy::Validate);

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_PIPELINE_HH
