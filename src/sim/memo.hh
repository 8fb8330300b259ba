/**
 * @file
 * Steady-state fast-forward: an exact, outcome-keyed iteration memo.
 *
 * A kernel's trace is a prologue plus one block-loop iteration per
 * block, and the core soon schedules every iteration from the same
 * state relative to its clocks. The memo remembers, per canonical core
 * state (OooScheduler's state with every cycle taken relative to the
 * floor of its group, see DESIGN §8), the iterations the core ran from
 * it: their outcome vectors (an Outcome per instruction), the stall
 * cycles they added and the state they ended in. When the next
 * iteration starts from a remembered state and its outcome step gives
 * a remembered outcome vector, the memo adds that iteration's stall
 * cycles and moves the floors instead of running the core. The replay
 * resolves every segment, the prologue included, and offers its
 * outcome vector to skip(); a segment it does not skip runs on the
 * core and is reported to ran(). Leaving fast-forward rebuilds the
 * scheduler from the canonical state at the current floors. The outcome step always runs, so caches, predictor
 * and their counters stay exact; a miss or a mispredict is just
 * another outcome vector.
 *
 * Two kinds of model take part (fastForwardable()). A window-limited
 * model keys one group at the window floor: its prune horizon bounds
 * every future probe, so bookings below the floor are dead. A
 * booking-free unlimited-window model (DF, DF+Alias, DF+Branch,
 * DF+Mem) keys its state in groups of cycles that drift apart, each
 * relative to its own floor with the fetch clock as group 0, and an
 * iteration applies wherever the gaps between the groups leave its
 * choices unchanged; its stall cycles are then affine in those gaps.
 * DF+Issue and DF+Res take the full path; so does every stream fed
 * to the scheduler's emit() directly, a timeline recording included.
 * Under the auditor every hit also runs on the core and is checked.
 */

#ifndef CRYPTARCH_SIM_MEMO_HH
#define CRYPTARCH_SIM_MEMO_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/pipeline.hh"

namespace cryptarch::sim
{

/**
 * One segment's outcome vector, kept sparse: its length and, by
 * position, each instruction whose Outcome is not all zero. From the
 * loop head, the taken bits in it fix the path the segment took.
 */
class OutcomeVector
{
  public:
    void
    clear()
    {
        n = 0;
        h = 0;
        marks.clear();
    }

    /** Append the next instruction's outcome. */
    void
    push(Outcome out)
    {
        if (out.memExtra || out.flags) {
            marks.push_back({n, out});
            h = (h ^ (n << 40 ^ uint64_t{out.flags} << 32 ^ out.memExtra))
                * 0x9E3779B97F4A7C15ull;
        }
        n++;
    }

    /** Append @p k instructions whose outcomes are all zero. */
    void pad(uint64_t k) { n += k; }

    /** Instructions in the segment. */
    uint64_t size() const { return n; }

    bool
    operator==(const OutcomeVector &o) const
    {
        return n == o.n && h == o.h && marks == o.marks;
    }

    /** Reads the outcomes back, one instruction at a time. */
    class Reader
    {
      public:
        explicit Reader(const OutcomeVector &v) : v(v) {}

        Outcome
        next()
        {
            const uint64_t at = i++;
            if (k < v.marks.size() && v.marks[k].at == at)
                return v.marks[k++].out;
            return {};
        }

      private:
        const OutcomeVector &v;
        uint64_t i = 0;
        size_t k = 0;
    };

  private:
    struct Mark
    {
        uint64_t at;
        Outcome out;
        bool operator==(const Mark &) const = default;
    };

    uint64_t n = 0;
    uint64_t h = 0; ///< hash of marks, so most mismatches cost one compare
    std::vector<Mark> marks;
};

/** The memo of one replay (see the file comment). */
class IterationMemo
{
  public:
    /** Memoize the block-loop iterations of @p sched, which must be
     *  fastForwardable() and must outlive the memo; each iteration
     *  starts at pc @p loopHead. */
    IterationMemo(OooScheduler &sched, uint32_t loopHead);

    /** True when @p sched may use the memo at all: it is
     *  window-limited or booking-free. */
    static bool fastForwardable(OooScheduler &sched);

    /**
     * Fast-forward over the iteration whose outcome step gave
     * @p outcomes when the memo holds it, and return true. Otherwise
     * rebuild the scheduler if fast-forward left it behind and return
     * false (always so with no current state, e.g. on the prologue):
     * the caller schedules the segment on the core and calls ran().
     * Under the auditor a hit also returns false: the core runs the
     * iteration and ran() checks it against the hit.
     */
    bool skip(const OutcomeVector &outcomes);

    /**
     * The core scheduled one segment, whose outcomes were
     * @p outcomes, and now stands at the loop head (@p atHead) or at
     * the end of the trace. Throws AuditError when the segment was an
     * audited hit and the core disagrees with it.
     */
    void ran(const OutcomeVector &outcomes, bool atHead);

    /** Rebuild the scheduler if fast-forward left it behind; call
     *  before OooScheduler::finish(). */
    void settle();

    /** Instructions fast-forwarded so far (under the auditor: the
     *  instructions of the hits it checked). */
    uint64_t skippedInstructions() const { return skipped; }

  private:
    /** A canonical core state and the iterations run from it. */
    struct State
    {
        std::vector<uint32_t> key;
        std::vector<uint32_t> tops; ///< per group, its largest offset
        uint64_t hash = 0;
        std::vector<uint32_t> edges; ///< indices into IterationMemo::edges
    };

    /** One end floor: start floor @c from plus @c by cycles. */
    struct FloorStep
    {
        uint32_t from = 0;
        Cycle by = 0;
    };

    /** A stall term linear in a gap: n * (floor[group] - floor[0])
     *  cycles at flat index @c at. */
    struct GapTerm
    {
        uint16_t at = 0;
        uint16_t group = 0;
        int64_t n = 0;
    };

    /** The least and most a gap between two floors may be. */
    struct GapBound
    {
        Cycle least = 0;
        Cycle most = 0;
    };

    /** One iteration the core ran from a state. */
    struct Edge
    {
        OutcomeVector outcomes;
        int32_t to = 0;         ///< the state it ended in
        Cycle lag = 0;          ///< fetch lag at its start
        bool lagFree = false;   ///< fetch never bound (the fetch rule)
        /** Fetch ends lagEnd below the end floor: a redirect re-based
         *  it mid-way, or the state keys fetch as group 0's floor. */
        bool rebased = false;
        Cycle fetchAdvance = 0; ///< end fetch - start fetch
        Cycle lagEnd = 0;       ///< fetch lag at its end
        std::vector<FloorStep> floors; ///< one per end group
        /** Per start gap g, the range of floor[g + 1] - floor[g] in
         *  which the iteration applies. */
        std::vector<GapBound> gaps;
        /** Stall cycles it added at zero gaps, as (flat index, cycles)
         *  with wrap-around; flat index cls * num_stall_causes + c is
         *  stallByClass[cls][c] (finish() sums the columns into
         *  stallCycles). gapStalls adds the rest. */
        std::vector<std::pair<uint16_t, uint64_t>> stalls;
        std::vector<GapTerm> gapStalls;
    };

    /** Canonical state of the scheduler into keyBuf and its floors
     *  into @p F (group tops into topsBuf); false when the state is
     *  too large to key. */
    bool capture(std::vector<Cycle> &F);
    /** Key the cycles in valueBuf into the value words of @p k against
     *  F[0] (as the dead line), first adding the groups' floors to @p F
     *  when clustered; group tops into topsBuf. False when a value does
     *  not fit. */
    bool encode(std::vector<uint32_t> &k, std::vector<Cycle> &F);
    /** Rebuild the scheduler from @p key at @p F. */
    void restore(const std::vector<uint32_t> &key,
                 const std::vector<Cycle> &F);
    /** The id of the state in keyBuf, adding it when new. */
    int32_t intern();
    /** Note where the iteration starting at state @p id begins. */
    void begin(int32_t id, const std::vector<Cycle> &F);
    /** Fill @p e from the iteration that just ran from state @p from
     *  and ended at floors @p end; false when its end state would not
     *  keep its key at other gaps. */
    bool derive(Edge &e, int32_t from, const std::vector<Cycle> &end);
    /** True when @p e applies at the current floors. */
    bool admits(const Edge &e) const;
    /** Add @p e's stall cycles at floors @p F to @p byClass. */
    static void addStalls(const Edge &e, const std::vector<Cycle> &F,
                          std::array<StallVector, isa::num_op_classes>
                              &byClass);
    /** Fetch after @p e, which ends at group 0 floor @p floor and
     *  started at fetch @p start. */
    Cycle fetchAfter(const Edge &e, Cycle floor, Cycle start) const;
    /** The end floors @p e gives from floors @p F, into @p out. */
    static void advance(const Edge &e, const std::vector<Cycle> &F,
                        std::vector<Cycle> &out);
    /** The audited hit @p e from state @p from, which ends at floors
     *  @p hit, against the core's run, captured (when @p keyed) into
     *  keyBuf and endBuf; throws AuditError on a difference. */
    void check(const Edge &e, int32_t from, bool keyed,
               const std::vector<Cycle> &hit);

    OooScheduler &s;
    const uint32_t loopHead;
    /** Key booking-free unlimited-window states in groups (else one
     *  group at the window floor). */
    const bool clustered;
    std::vector<State> states;
    std::vector<Edge> edges;
    std::vector<uint32_t> keyBuf;
    std::vector<uint32_t> topsBuf;
    std::vector<Cycle> valueBuf;
    std::vector<Cycle> liveBuf;
    std::vector<Cycle> endBuf;
    std::vector<Cycle> hitBuf;
    std::vector<CoreStep> steps; ///< the core's log (OooScheduler::stepLog)
    size_t keyWords = 0; ///< summed over states

    // The current boundary: its state (-1 when none) and, while the
    // core is virtual, the floors, fetch and instruction index the
    // scheduler would hold.
    int32_t cur = -1;
    bool virtualCore = false;
    std::vector<Cycle> floors;
    Cycle fetch = 0;
    uint64_t index = 0;
    uint64_t iterations = 0; ///< iterations begun at the loop head

    // Where the iteration running on the core began, and the audited
    // hit it has to reproduce (-1 when none).
    int32_t startState = -1;
    std::vector<Cycle> startFloors;
    Cycle startFetch = 0;
    uint64_t startIndex = 0;
    std::array<StallVector, isa::num_op_classes> startByClass{};
    int32_t shadow = -1;

    uint64_t skipped = 0;

    friend struct IterationMemoProbe; ///< tests corrupt edges through it
};

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_MEMO_HH
