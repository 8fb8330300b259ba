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
     * WindowFull is a dispatch delay charged only beyond every other
     * readiness constraint and only at the in-order dispatch frontier,
     * so frontend run-ahead is never counted as a machine stall (see
     * DESIGN.md on stall accounting). FetchRedirect stays 0 (stall.hh).
     */
    StallVector stall{};
};

/**
 * What the outcome step fixes about one instruction: everything its
 * timing takes from addresses or branch outcomes. OooScheduler::
 * resolve() computes it in program order, independent of the schedule,
 * and the core (OooScheduler::schedule()) consumes it. Two runs of the
 * core from the same state over instructions with equal outcomes make
 * the same schedule, which is what lets IterationMemo key on it.
 */
struct Outcome
{
    /** A branch went to its target (with the start pc, these bits
     *  fix the path an iteration takes). */
    static constexpr uint32_t taken = 1;
    /** A conditional branch was mispredicted on a machine whose
     *  predictor is not perfect, so it redirects fetch. */
    static constexpr uint32_t mispredicted = 2;
    /** An SBOX read hit its SBox sector cache. */
    static constexpr uint32_t sbox_hit = 4;

    /** Memory-hierarchy cycles beyond a hit (loads, and SBOX reads
     *  served by the D-cache). */
    uint32_t memExtra = 0;
    uint32_t flags = 0;

    bool operator==(const Outcome &) const = default;
};

class IterationMemo;

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
     * window size and latency chain; tests pin the base through
     * setProgressBudgetOverride) throws a typed
     * isa::Trap{NoProgress} carrying the stalled-frontier snapshot
     * instead of spinning forever.
     */
    explicit OooScheduler(const MachineConfig &config,
                          ConfigPolicy policy = ConfigPolicy::Validate);

    /** The one per-instruction path: the outcome step, then the
     *  core. */
    void emit(const isa::DynInst &inst) override;

    /**
     * The outcome step: run @p inst's accesses through the memory
     * hierarchy and SBox caches and its branch through the predictor,
     * and count it. Must see every instruction, in program order; it
     * never reads the schedule.
     */
    Outcome resolve(const isa::DynInst &inst);

    /** The core: schedule @p inst, whose outcome step gave @p out. */
    void schedule(const isa::DynInst &inst, Outcome out);

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
    /** schedule()'s body, shared with emit(). */
    void core(const isa::DynInst &inst, Outcome out);
    Cycle fetchOf();
    /** The SBox cache (and port pool) serving SBOX read @p inst. */
    unsigned
    sboxCacheOf(const isa::DynInst &inst) const
    {
        return sboxIndexMask
            ? inst.tableId & sboxIndexMask
            : inst.tableId % static_cast<unsigned>(sboxCaches.size());
    }
    /**
     * Schedule @p inst at the first cycle >= @p ready with an issue
     * slot and a free functional unit. Returns the issue cycle and
     * sets @p lat to the operation latency and @p memExtra to the
     * memory-hierarchy portion of it (cycles beyond a hit). Every
     * probed cycle that loses the joint reservation race is charged
     * to the losing constraint in @p stall, with the cause's bit set
     * in @p touched (emit()'s accumulation pass walks only those).
     */
    Cycle issueOf(const isa::DynInst &inst, Outcome out, Cycle ready,
                  unsigned &lat, unsigned &memExtra, StallVector &stall,
                  unsigned &touched);
    /** Single prune entry point: drop bookkeeping below @p horizon in
     *  every per-cycle resource, the SBox-cache ports included. */
    void pruneResources(Cycle horizon);
    /** Call @p fn on every limited per-cycle resource, in one fixed
     *  order. */
    template <class Fn>
    void
    forEachResource(Fn &&fn)
    {
        for (CycleResource *r : {&issueSlots, &retireSlots, &aluUnits,
                                 &rotUnits, &mulSlots, &dcachePorts})
            if (r->limited())
                fn(*r);
        for (auto &p : sboxPorts)
            if (p.limited())
                fn(p);
    }
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

    // The fetch rule of IterationMemo (DESIGN §8): fetchBound is set
    // when fetch + frontendDepth reached a value it is max'ed with
    // (dispatch or a covered maximum) or a redirect's resume cycle, so
    // an earlier fetch could have changed the schedule. fetchDetached
    // is set when, before that, a misprediction re-based fetch on the
    // core's own clock. The memo clears both at an iteration's start;
    // nothing else reads them.
    bool fetchBound = false;
    bool fetchDetached = false;

    // Outcome-step state: read and written only by resolve().
    BranchPredictor predictor;
    MemoryHierarchy memory;
    std::vector<SboxCache> sboxCaches;

    uint64_t timelineFirst = 0;
    uint64_t timelineCount = 0;
    std::vector<TimelineEntry> timeline;

    friend class IterationMemo;
};

// The outcome step is inline: the replay loop's outcome-only walk
// then builds just the fields it reads.
inline Outcome
OooScheduler::resolve(const isa::DynInst &inst)
{
    stats.instructions++;
    stats.classCounts[static_cast<size_t>(inst.cls)]++;
    if (inst.isLoad)
        stats.loads++;
    if (inst.isStore)
        stats.stores++;

    Outcome out;
    switch (inst.cls) {
      case isa::OpClass::Load:
        out.memExtra = memory.access(inst.addr, inst.size);
        break;
      case isa::OpClass::Store:
        (void)memory.access(inst.addr, inst.size);
        break;
      case isa::OpClass::SboxRead:
        stats.sboxAccesses++;
        if (cfg.perfectSbox)
            break;
        if (!sboxCaches.empty()) {
            if (sboxCaches[sboxCacheOf(inst)].access(inst.addr & ~0x3FFull,
                                                     inst.addr & 0x3FF)) {
                stats.sboxCacheHits++;
                out.flags |= Outcome::sbox_hit;
                break;
            }
        }
        // A miss demand-fetches the sector from the D-cache; without
        // SBox caches the read is a D-cache access outright.
        out.memExtra = memory.access(inst.addr, inst.size);
        break;
      case isa::OpClass::SboxSync:
        for (auto &sc : sboxCaches)
            sc.sync();
        break;
      default:
        break;
    }

    if (inst.branch) {
        if (inst.taken)
            out.flags |= Outcome::taken;
        if (inst.op != isa::Opcode::Br) {
            stats.condBranches++;
            if (!predictor.predict(inst.pc, inst.taken)) {
                stats.mispredicts++;
                if (!cfg.perfectBranch)
                    out.flags |= Outcome::mispredicted;
            }
        }
    }
    return out;
}

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
