#include "sim/memo.hh"

#include <algorithm>
#include <limits>

namespace cryptarch::sim
{

namespace
{

/** The memo clears itself before it would hold more states, edges or
 *  key words (4 bytes each) than this, which bounds its memory and its
 *  lookups on runs whose states never repeat. */
constexpr size_t max_states = 256;
constexpr size_t max_edges = 512;
constexpr size_t max_key_words = size_t{1} << 19;
/** A state whose bookings span more cycles than this is not keyed. */
constexpr Cycle max_span = 1024;

uint64_t
hashKey(const std::vector<uint32_t> &key)
{
    uint64_t h = key.size();
    for (uint32_t v : key)
        h = (h ^ v) * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 32);
}

} // namespace

IterationMemo::IterationMemo(OooScheduler &sched) : s(sched) {}

bool
IterationMemo::fastForwardable(const OooScheduler &sched)
{
    return sched.cfg.windowSize != unlimited && !sched.auditing
        && sched.timelineCount == 0;
}

/*
 * The canonical state. The floor is
 *
 *   T = max(fetch + depth, min(retireRing[ringPos], lastDispatch))
 *
 * and every cycle value v is keyed as v - T when v > T and as 0 (dead)
 * otherwise; restore() writes a dead value back as T. Why a dead value
 * can stand in for T, checked against OooScheduler::schedule():
 *
 *  - Every later dispatch D is >= T. Dispatch is max(fetch + depth,
 *    freed), fetch never moves back, freed is the retire cycle of the
 *    instruction windowSize earlier, retire cycles never decrease, and
 *    the oldest ring slot is the smallest of them; and dispatch never
 *    decreases, so D >= lastDispatch too. Ready, issue, complete and
 *    retire cycles are >= D.
 *  - regReady: feeds readyOp = max(fetch + depth, regs), which is
 *    read (a) in the window's covered maximum, which also takes
 *    lastDispatch >= T; (b) in ready = max(readyOp, ..., dispatch)
 *    with dispatch >= T; (c) for bindMemExtra, which only matters when
 *    readyOp > dispatch >= T and then comes from the registers equal to
 *    that maximum, all live. A dead register's regMemExtra is never
 *    read, so it is keyed as 0. A store's addr_ready takes
 *    max(dispatch, regReady) as well.
 *  - storeAddrFrontier, syncFrontier, storeDataFrontier: read as
 *    readyAlias / readySync, which enter the covered maximum (bounded
 *    below by lastDispatch) and are max'ed with dispatch before any
 *    other use; updated by max with, or assignment of, values >= D.
 *  - lastDispatch >= T by definition, so it is exact. lastRetire and
 *    maxComplete are only max'ed with complete/retire cycles >= D (and
 *    summed up by finish()).
 *  - retireRing: from ringPos on, the slots hold non-decreasing retire
 *    cycles, all >= the oldest. If the floor is the ring or
 *    lastDispatch term, they are >= T and exact. If it is fetch + depth,
 *    a slot <= T is compared with a later fetch + depth >= T and loses
 *    (freed > dispatch is false) whether it is exact or T.
 *  - Bookings: every later probe (issue slots and units at ready >= D,
 *    retire slots at >= complete) lies at or above T, and no booking
 *    lies above max(lastRetire, maxComplete), so the counts over
 *    [T, max(lastRetire, maxComplete)] are all a resource shows. This is
 *    why only window-limited models qualify: there the prune horizon,
 *    retireRing[ringPos], really is a lower bound on later probes, so
 *    when the full path prunes or not is invisible. Unlimited-window
 *    models probe below their horizon and see the phantom capacity a
 *    prune leaves (DESIGN §8).
 *  - The window's covered maximum is why the floor takes
 *    min(retireRing[ringPos], lastDispatch) and not the larger: covered
 *    is compared with freed and charged as freed - covered, and its
 *    terms are only bounded below by max(fetch + depth, lastDispatch).
 *  - Fetch micro-state is exact: fetchedThisCycle only when fetchWidth
 *    is limited (otherwise nothing reads it, and it grows without
 *    bound, so keying it would keep every unlimited-fetch iteration
 *    apart), blocksThisCycle only when fetchBlocksPerCycle is limited,
 *    and nextCycleFetch.
 *
 * fetchCycle itself is not keyed; its lag T - (fetch + depth) >= 0 is
 * kept beside the key (see skip() for the fetch rule).
 */
bool
IterationMemo::capture(Cycle &T)
{
    const Cycle fetchFloor = s.fetchCycle + s.cfg.frontendDepth;
    T = std::max(fetchFloor,
                 std::min(s.retireRing[s.ringPos], s.lastDispatch));
    const Cycle top = std::max({s.lastRetire, s.maxComplete, T});
    if (top - T > max_span)
        return false;

    bool fits = true;
    auto rel = [&](Cycle v) -> uint32_t {
        if (v <= T)
            return 0;
        if (v - T > std::numeric_limits<uint32_t>::max())
            fits = false;
        return static_cast<uint32_t>(v - T);
    };
    auto &k = keyBuf;
    k.clear();
    k.push_back(s.cfg.fetchWidth != unlimited ? s.fetchedThisCycle : 0);
    k.push_back(s.cfg.fetchBlocksPerCycle != unlimited ? s.blocksThisCycle
                                                       : 0);
    k.push_back(s.nextCycleFetch);
    for (size_t r = 0; r < isa::num_regs; r++) {
        const uint32_t v = rel(s.regReady[r]);
        k.push_back(v);
        k.push_back(v ? s.regMemExtra[r] : 0);
    }
    k.push_back(rel(s.storeAddrFrontier));
    k.push_back(rel(s.storeDataFrontier));
    k.push_back(rel(s.syncFrontier));
    k.push_back(rel(s.lastDispatch));
    k.push_back(rel(s.lastRetire));
    k.push_back(rel(s.maxComplete));
    const size_t w = s.retireRing.size();
    for (size_t i = 0; i < w; i++)
        k.push_back(rel(s.retireRing[(s.ringPos + i) % w]));
    s.forEachResource([&](CycleResource &r) {
        for (Cycle c = T; c <= top; c++)
            k.push_back(r.bookedAt(c));
    });
    return fits;
}

void
IterationMemo::restore(const std::vector<uint32_t> &key, Cycle T)
{
    size_t i = 0;
    s.fetchCycle = fetch;
    s.fetchedThisCycle = key[i++];
    s.blocksThisCycle = key[i++];
    s.nextCycleFetch = key[i++] != 0;
    for (size_t r = 0; r < isa::num_regs; r++) {
        s.regReady[r] = T + key[i++];
        s.regMemExtra[r] = key[i++];
    }
    s.storeAddrFrontier = T + key[i++];
    s.storeDataFrontier = T + key[i++];
    s.syncFrontier = T + key[i++];
    s.lastDispatch = T + key[i++];
    s.lastRetire = T + key[i++];
    s.maxComplete = T + key[i++];
    // The instruction index moves on by every skipped instruction, so
    // the watchdog budget and the prune cadence stay the full path's.
    s.instIndex = index;
    const size_t w = s.retireRing.size();
    s.ringPos = index % w;
    for (size_t n = 0; n < w; n++)
        s.retireRing[(s.ringPos + n) % w] = T + key[i++];
    // Bookings below T are dropped: nothing probes there again. Both
    // values are >= T now, so this is capture()'s top.
    const Cycle top = std::max(s.lastRetire, s.maxComplete);
    s.forEachResource([&](CycleResource &r) {
        r = CycleResource(r.capacity());
        for (Cycle c = T; c <= top; c++, i++)
            if (key[i])
                r.book(c, key[i]);
    });
}

int32_t
IterationMemo::intern()
{
    const uint64_t h = hashKey(keyBuf);
    for (size_t id = 0; id < states.size(); id++)
        if (states[id].hash == h && states[id].key == keyBuf)
            return static_cast<int32_t>(id);
    State st;
    st.key = keyBuf;
    st.hash = h;
    keyWords += keyBuf.size();
    states.push_back(std::move(st));
    return static_cast<int32_t>(states.size() - 1);
}

void
IterationMemo::begin(int32_t id, Cycle T)
{
    cur = id;
    floor = T;
    fetch = s.fetchCycle;
    index = s.instIndex;
    startState = id;
    startFloor = T;
    startFetch = fetch;
    startStalls = s.stats.stallCycles;
    startByClass = s.stats.stallByClass;
    s.fetchBound = false;
    s.fetchDetached = false;
}

void
IterationMemo::ran(const OutcomeVector &outcomes, bool atHead)
{
    cur = -1;
    int32_t from = startState;
    startState = -1;
    Cycle T = 0;
    if (!atHead || !capture(T))
        return;
    if (states.size() >= max_states || edges.size() >= max_edges
        || keyWords + keyBuf.size() > max_key_words) {
        states.clear();
        edges.clear();
        keyWords = 0;
        from = -1;
    }
    const int32_t id = intern();
    if (from >= 0) {
        const Cycle depth = s.cfg.frontendDepth;
        Edge e;
        e.outcomes = outcomes;
        e.to = id;
        e.lag = startFloor - (startFetch + depth);
        e.detached = s.fetchDetached;
        // Fetch may start later than recorded only if it never bound
        // here and the end floor does not come from fetch (else the
        // end state would be keyed against another floor), or if a
        // redirect tied it to the core before it could bind.
        e.lagFree = s.fetchDetached
            || (!s.fetchBound
                && s.fetchCycle + depth
                    <= std::min(s.retireRing[s.ringPos], s.lastDispatch));
        e.floorAdvance = T - startFloor;
        e.fetchAdvance = s.fetchCycle - startFetch;
        e.lagEnd = T - (s.fetchCycle + depth);
        for (size_t c = 0; c < num_stall_causes; c++)
            if (uint64_t d = s.stats.stallCycles[c] - startStalls[c])
                e.stalls.emplace_back(static_cast<uint16_t>(c), d);
        for (size_t cls = 0; cls < isa::num_op_classes; cls++)
            for (size_t c = 0; c < num_stall_causes; c++)
                if (uint64_t d = s.stats.stallByClass[cls][c]
                        - startByClass[cls][c])
                    e.stalls.emplace_back(
                        static_cast<uint16_t>(num_stall_causes * (cls + 1)
                                              + c),
                        d);
        edges.push_back(std::move(e));
        states[from].edges.push_back(
            static_cast<uint32_t>(edges.size() - 1));
    }
    begin(id, T);
}

/*
 * The fetch rule. Fetch runs ahead of execution, so its lag behind the
 * floor grows every iteration and an exact fetch never repeats. An
 * edge therefore applies at a lag other than its own only when fetch
 * cannot have mattered: schedule() sets fetchBound when fetch + depth
 * was not strictly below each term it is max'ed with (freed for
 * dispatch, the other terms of the window's covered maximum, a
 * redirect's resume cycle), and a later start (smaller lag) could then
 * have changed the schedule. With the rule held, an earlier fetch (a
 * larger lag) moves no comparison: fetch + depth stays below all of
 * them, fetch advances by the same micro-state steps, and a redirect
 * that came strictly after it re-bases fetch on the core (detached).
 */
bool
IterationMemo::skip(const OutcomeVector &outcomes)
{
    const Cycle depth = s.cfg.frontendDepth;
    const Cycle lag = floor - (fetch + depth);
    for (uint32_t ei : states[cur].edges) {
        const Edge &e = edges[ei];
        if (!(lag == e.lag || (e.lagFree && lag > e.lag))
            || e.outcomes != outcomes)
            continue;
        for (const auto &[at, cycles] : e.stalls) {
            if (at < num_stall_causes)
                s.stats.stallCycles[at] += cycles;
            else
                s.stats.stallByClass[at / num_stall_causes - 1]
                                    [at % num_stall_causes] += cycles;
        }
        index += e.outcomes.size();
        skipped += e.outcomes.size();
        floor += e.floorAdvance;
        fetch = e.detached ? floor - e.lagEnd - depth
                           : fetch + e.fetchAdvance;
        cur = e.to;
        virtualCore = true;
        return true;
    }
    if (virtualCore) {
        restore(states[cur].key, floor);
        virtualCore = false;
        begin(cur, floor);
    }
    return false;
}

void
IterationMemo::settle()
{
    if (virtualCore) {
        restore(states[cur].key, floor);
        virtualCore = false;
    }
}

} // namespace cryptarch::sim
