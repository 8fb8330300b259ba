/**
 * @file
 * Steady-state fast-forward: an exact, outcome-keyed iteration memo.
 *
 * A kernel's trace is a prologue plus one block-loop iteration per
 * block, and on a window-limited machine the core soon schedules every
 * iteration from the same state relative to the current cycle. The
 * memo remembers, per canonical core state (OooScheduler's state with
 * every cycle taken relative to a floor, see DESIGN §8), the
 * iterations the core ran from it: their outcome vectors (an Outcome
 * per instruction), the stall cycles they added and the state they ended
 * in. When the next iteration starts from a remembered state and its
 * outcome step gives a remembered outcome vector, the memo adds that
 * iteration's stall cycles and moves the floor instead of running the
 * core. Leaving fast-forward rebuilds the scheduler from the canonical
 * state at the current floor. The outcome step always runs, so caches,
 * predictor and their counters stay exact; a miss or a mispredict is
 * just another outcome vector.
 *
 * Only window-limited models take part (fastForwardable()): their
 * prune horizon bounds every future probe, so bookings below the floor
 * are dead. The unlimited-window models and every run under the
 * auditor or a timeline window take the full path.
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
    /** Memoize iterations of @p sched, which must be
     *  fastForwardable() and must outlive the memo. */
    explicit IterationMemo(OooScheduler &sched);

    /** True when @p sched may use the memo at all. */
    static bool fastForwardable(const OooScheduler &sched);

    /**
     * True when the core stands at a remembered state that has
     * iterations to offer: resolve the next iteration's outcomes
     * first, then call skip().
     */
    bool armed() const { return cur >= 0 && !states[cur].edges.empty(); }

    /**
     * Fast-forward over the iteration whose outcome step gave
     * @p outcomes when the memo holds it, and return true. Otherwise
     * rebuild the scheduler at the current state and return false: the
     * caller schedules the iteration on the core and calls ran().
     */
    bool skip(const OutcomeVector &outcomes);

    /**
     * The core scheduled one segment, whose outcomes were
     * @p outcomes, and now stands at the loop head (@p atHead) or at
     * the end of the trace.
     */
    void ran(const OutcomeVector &outcomes, bool atHead);

    /** Rebuild the scheduler if fast-forward left it behind; call
     *  before OooScheduler::finish(). */
    void settle();

    /** Instructions fast-forwarded so far. */
    uint64_t skippedInstructions() const { return skipped; }

  private:
    /** A canonical core state and the iterations run from it. */
    struct State
    {
        std::vector<uint32_t> key;
        uint64_t hash = 0;
        std::vector<uint32_t> edges; ///< indices into IterationMemo::edges
    };

    /** One iteration the core ran from a state. */
    struct Edge
    {
        OutcomeVector outcomes;
        int32_t to = 0;         ///< the state it ended in
        Cycle lag = 0;          ///< fetch lag at its start
        bool lagFree = false;   ///< fetch never bound (the fetch rule)
        bool detached = false;  ///< a redirect re-based fetch mid-way
        Cycle floorAdvance = 0; ///< end floor - start floor
        Cycle fetchAdvance = 0; ///< end fetch - start fetch
        Cycle lagEnd = 0;       ///< fetch lag at its end
        /** Stall cycles it added, as (flat index, cycles); flat index
         *  cls * num_stall_causes + c is stallByClass[cls][c]
         *  (finish() sums the columns into stallCycles). */
        std::vector<std::pair<uint16_t, uint64_t>> stalls;
    };

    /** Canonical state of the scheduler into keyBuf and its floor;
     *  false when the state is too large to key. */
    bool capture(Cycle &floor);
    /** Rebuild the scheduler from @p key at @p floor. */
    void restore(const std::vector<uint32_t> &key, Cycle floor);
    /** The id of the state in keyBuf, adding it when new. */
    int32_t intern();
    /** Note where the iteration starting at state @p id begins. */
    void begin(int32_t id, Cycle floor);

    OooScheduler &s;
    std::vector<State> states;
    std::vector<Edge> edges;
    std::vector<uint32_t> keyBuf;
    size_t keyWords = 0; ///< summed over states

    // The current boundary: its state (-1 when none) and, while the
    // core is virtual, the floor, fetch and instruction index the
    // scheduler would hold.
    int32_t cur = -1;
    bool virtualCore = false;
    Cycle floor = 0;
    Cycle fetch = 0;
    uint64_t index = 0;

    // Where the iteration running on the core began.
    int32_t startState = -1;
    Cycle startFloor = 0;
    Cycle startFetch = 0;
    std::array<StallVector, isa::num_op_classes> startByClass{};

    uint64_t skipped = 0;
};

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_MEMO_HH
