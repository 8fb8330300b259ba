#include "sim/memo.hh"

#include <algorithm>
#include <string>

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
/** A clustered key starts a new group above a wider gap than this. */
constexpr Cycle group_gap = 8;
/** A state with more groups than this is not keyed. */
constexpr size_t max_groups = 16;
/** A key word holds a cycle value as group << offset_bits | offset. */
constexpr unsigned offset_bits = 24;
constexpr uint32_t offset_mask = (uint32_t{1} << offset_bits) - 1;
/** A gap bound that bounds nothing. */
constexpr Cycle no_bound = ~Cycle{0};

uint64_t
hashKey(const std::vector<uint32_t> &key)
{
    uint64_t h = key.size();
    for (uint32_t v : key)
        h = (h ^ v) * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 32);
}

/** The group of cycle @p v: the last floor at or below it (group 0
 *  for a value below every floor). */
size_t
groupOf(const std::vector<Cycle> &F, Cycle v)
{
    size_t g = F.size() - 1;
    while (g && v < F[g])
        g--;
    return g;
}

Cycle
valueOf(const std::vector<Cycle> &F, uint32_t word)
{
    return F[word >> offset_bits] + (word & offset_mask);
}

/**
 * Call fn(i, reg) on the index i of every cycle-valued word of a key
 * without bookings of @p words words, in capture()'s order: after the
 * three fetch words, a (ready, memExtra) pair per register (reg true),
 * the six frontiers and the window ring.
 */
template <class Fn>
void
forEachValueWord(size_t words, Fn &&fn)
{
    for (size_t r = 0; r < isa::num_regs; r++)
        fn(3 + 2 * r, true);
    for (size_t i = 3 + 2 * isa::num_regs; i < words; i++)
        fn(i, false);
}

/** Where capture() keys lastRetire: after the three fetch words, a
 *  (ready, memExtra) pair per register and four frontiers. */
constexpr size_t last_retire_word = 3 + 2 * isa::num_regs + 4;

} // namespace

IterationMemo::IterationMemo(OooScheduler &sched, uint32_t loopHead)
    : s(sched), loopHead(loopHead),
      clustered(sched.cfg.windowSize == unlimited)
{
}

bool
IterationMemo::fastForwardable(OooScheduler &sched)
{
    if (sched.cfg.windowSize != unlimited)
        return true;
    bool booked = false;
    sched.forEachResource([&](CycleResource &) { booked = true; });
    return !booked;
}

/*
 * The canonical state. Every cycle value v is keyed against a floor.
 * Group 0's floor T is the dead line: a v <= T is keyed as 0 ("dead")
 * and restore() writes it back as T.
 *
 * A window-limited model keys one group, at
 *
 *   T = max(fetch + depth, min(retireRing[ringPos], lastDispatch)),
 *
 * as every v - T. Why a dead value can stand in for T, checked against
 * OooScheduler::schedule():
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
 *    why window-limited models qualify: there the prune horizon,
 *    retireRing[ringPos], really is a lower bound on later probes, so
 *    when the full path prunes or not is invisible. Unlimited-window
 *    models probe below their horizon and see the phantom capacity a
 *    prune leaves (DESIGN §8), so only those that book nothing qualify.
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
 *
 * A booking-free unlimited-window model (clustered) keys in groups.
 * Group 0's floor is the fetch clock, T = fetch + depth, so the lag is
 * always 0 and fetch is exact. The live values (> T) are sorted and a
 * new group starts above each gap wider than group_gap; each value is
 * keyed as its group and its offset from the group's floor (the
 * smallest value in it). A dead value stands in for T as above: with
 * no window, dispatch is fetch + depth >= T, and with no bookings the
 * last three points do not arise. derive() says when an iteration
 * recorded at some gaps between the floors holds at others.
 */
bool
IterationMemo::capture(std::vector<Cycle> &F)
{
    const Cycle fetchFloor = s.fetchCycle + s.cfg.frontendDepth;
    F.assign(1, clustered
                    ? fetchFloor
                    : std::max(fetchFloor, std::min(s.retireRing[s.ringPos],
                                                    s.lastDispatch)));
    const Cycle T = F[0];
    const Cycle top = std::max({s.lastRetire, s.maxComplete, T});
    if (!clustered && top - T > max_span)
        return false;

    // The fetch and memExtra words go in now, the cycle values into
    // valueBuf; encode() keys those into the words left at 0.
    auto &k = keyBuf;
    auto &v = valueBuf;
    k.clear();
    v.clear();
    k.push_back(s.cfg.fetchWidth != unlimited ? s.fetchedThisCycle : 0);
    k.push_back(s.cfg.fetchBlocksPerCycle != unlimited ? s.blocksThisCycle
                                                       : 0);
    k.push_back(s.nextCycleFetch);
    for (size_t r = 0; r < isa::num_regs; r++) {
        v.push_back(s.regReady[r]);
        k.push_back(0);
        k.push_back(s.regMemExtra[r]);
    }
    for (Cycle c : {s.storeAddrFrontier, s.storeDataFrontier,
                    s.syncFrontier, s.lastDispatch, s.lastRetire,
                    s.maxComplete})
        v.push_back(c);
    const size_t w = s.retireRing.size();
    for (size_t i = 0; i < w; i++)
        v.push_back(s.retireRing[(s.ringPos + i) % w]);
    k.resize(k.size() + 6 + w);
    if (!encode(k, F))
        return false;
    s.forEachResource([&](CycleResource &r) {
        for (Cycle c = T; c <= top; c++)
            k.push_back(r.bookedAt(c));
    });
    return true;
}

bool
IterationMemo::encode(std::vector<uint32_t> &k, std::vector<Cycle> &F)
{
    const Cycle T = F[0];
    if (clustered) {
        liveBuf.clear();
        for (Cycle c : valueBuf)
            if (c > T)
                liveBuf.push_back(c);
        std::sort(liveBuf.begin(), liveBuf.end());
        Cycle prev = T;
        for (Cycle c : liveBuf) {
            if (c - prev > group_gap)
                F.push_back(c);
            prev = c;
        }
        if (F.size() > max_groups)
            return false;
    }
    topsBuf.assign(F.size(), 0);
    bool fits = true;
    auto rel = [&](Cycle c) -> uint32_t {
        if (c <= T)
            return 0;
        const size_t g = groupOf(F, c);
        const Cycle off = c - F[g];
        if (off > offset_mask) {
            fits = false;
            return 0;
        }
        topsBuf[g] = std::max(topsBuf[g], static_cast<uint32_t>(off));
        return static_cast<uint32_t>(g << offset_bits | off);
    };
    size_t i = 0;
    forEachValueWord(k.size(), [&](size_t at, bool reg) {
        k[at] = rel(valueBuf[i++]);
        if (reg && !k[at])
            k[at + 1] = 0;
    });
    return fits;
}

void
IterationMemo::restore(const std::vector<uint32_t> &key,
                       const std::vector<Cycle> &F)
{
    size_t i = 0;
    s.fetchCycle = fetch;
    s.fetchedThisCycle = key[i++];
    s.blocksThisCycle = key[i++];
    s.nextCycleFetch = key[i++] != 0;
    for (size_t r = 0; r < isa::num_regs; r++) {
        s.regReady[r] = valueOf(F, key[i++]);
        s.regMemExtra[r] = key[i++];
    }
    s.storeAddrFrontier = valueOf(F, key[i++]);
    s.storeDataFrontier = valueOf(F, key[i++]);
    s.syncFrontier = valueOf(F, key[i++]);
    s.lastDispatch = valueOf(F, key[i++]);
    s.lastRetire = valueOf(F, key[i++]);
    s.maxComplete = valueOf(F, key[i++]);
    // The instruction index moves on by every skipped instruction, so
    // the watchdog budget and the prune cadence stay the full path's.
    s.instIndex = index;
    const size_t w = s.retireRing.size();
    s.ringPos = index % w;
    for (size_t n = 0; n < w; n++)
        s.retireRing[(s.ringPos + n) % w] = valueOf(F, key[i++]);
    // Bookings below T are dropped: nothing probes there again. Both
    // values are >= T now, so this is capture()'s top.
    const Cycle T = F[0];
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
    st.tops = topsBuf;
    st.hash = h;
    keyWords += keyBuf.size();
    states.push_back(std::move(st));
    return static_cast<int32_t>(states.size() - 1);
}

void
IterationMemo::begin(int32_t id, const std::vector<Cycle> &F)
{
    cur = id;
    floors = F;
    fetch = s.fetchCycle;
    index = s.instIndex;
    startState = id;
    startFloors = F;
    startFetch = fetch;
    startIndex = index;
    startByClass = s.stats.stallByClass;
    s.fetchBound = false;
    s.fetchDetached = false;
    // With one group no gap can change, so nothing needs the log.
    steps.clear();
    s.stepLog = F.size() > 1 ? &steps : nullptr;
}

/*
 * When an iteration recorded at floors F holds at floors F' of the same
 * key (derive() and admits()). Let maxoff[g] be the largest offset from
 * F[g] of any cycle the iteration reads or makes in group g: the
 * state's values, and each instruction's dispatch, ready and complete
 * cycles, a store's address-ready cycle and a redirect's fetch clock.
 * Every cycle the core makes is a maximum or minimum of cycles it
 * already has, or one of them plus a step: a latency (complete -
 * ready, as no pool delays issue), 1 (address-ready, a fetch cycle)
 * or the penalty plus depth (a redirect). Let step be the largest. If
 * each gap F[g + 1] - F[g] is at least
 *
 *   maxoff[g] + max(step, extra) + 1,
 *
 * (extra below), then by induction over the iteration every cycle lies
 * in [F[g], F[g] + maxoff[g]] for the group g it came from: a maximum
 * or minimum picks an existing cycle, and a step from offset
 * <= maxoff[g] cannot reach F[g + 1]. So a comparison of cycles from
 * two groups is won by the higher group whatever the gaps, and one
 * within a group compares the same offsets; ties only occur within a
 * group. So with the same outcomes the core makes the same choices at
 * F' as at F, and every cycle it makes is the same offset from the
 * same group's floor. Range and origin agree, so the recorded
 * iteration tells each cycle's group by range.
 *
 * A gap the recorded iteration does not clear that way is bound to its
 * exact value instead: the groups on either side then move as one, and
 * the argument above holds for such blocks of groups, with the cleared
 * gaps between them.
 *
 * Stall cycles. With no window and no pools, an instruction waits
 * ready - dispatch, all charged to one cause (alias, sync, or operand
 * with its memory part). With ready in group r and dispatch in group d,
 * that is a constant plus F[r] - F[d]. The operand charge splits as
 * min(wait, bindMemExtra) memory and the rest operand; when r > d the
 * wait is at least gap[d] - maxoff[d] > extra >= bindMemExtra, so the
 * memory part is the constant bindMemExtra and the gap term goes to
 * operand. So each (class, cause) delta is a + sum_g n_g (F[g] - F[0])
 * with integer n_g: +1 for each charge's ready group, -1 for its
 * dispatch group, derived per instruction, not fitted; a is what is
 * left of the recorded delta. Within a block the gaps are fixed, so a
 * term there is a constant either way. Sums wrap mod 2^64 and are
 * exact.
 *
 * End state. Each end floor is a cycle of some start group g, so it is
 * F[g] plus a constant. An end group whose values all lie in one block
 * keeps its offsets at F'; one that straddles a cleared gap would not,
 * and refuses the iteration. A value dead at the end (at or
 * below the fetch clock) stays so: it comes from a lower group or from
 * fetch's group at a smaller offset.
 */
bool
IterationMemo::derive(Edge &e, int32_t from, const std::vector<Cycle> &end)
{
    const std::vector<Cycle> &F = startFloors;
    const size_t K = F.size();
    constexpr size_t cells = isa::num_op_classes * num_stall_causes;
    std::array<uint64_t, cells> delta{};
    for (size_t cls = 0; cls < isa::num_op_classes; cls++)
        for (size_t c = 0; c < num_stall_causes; c++)
            delta[cls * num_stall_causes + c] =
                s.stats.stallByClass[cls][c] - startByClass[cls][c];

    if (K > 1) {
        std::vector<Cycle> maxoff(states[from].tops.begin(),
                                  states[from].tops.end());
        std::vector<int64_t> n(cells * K, 0);
        Cycle step = 1;
        Cycle extra = 0;
        auto note = [&](Cycle v) {
            const size_t g = groupOf(F, v);
            maxoff[g] = std::max(maxoff[g], v - F[g]);
            return g;
        };
        for (const CoreStep &st : steps) {
            const size_t d = note(st.dispatch);
            const size_t r = note(st.ready);
            note(st.complete);
            step = std::max(step, st.complete - st.ready);
            if (st.aux) {
                note(st.aux);
                if (st.aux > st.complete)
                    step = std::max(step, st.aux - st.complete);
            }
            if (r == d)
                continue;
            auto has = [&](StallCause c) {
                return st.touched >> static_cast<unsigned>(c) & 1;
            };
            const StallCause cause = has(StallCause::StoreAlias)
                ? StallCause::StoreAlias
                : has(StallCause::SboxVisibility) ? StallCause::SboxVisibility
                                                  : StallCause::Operand;
            if (cause == StallCause::Operand)
                extra = std::max<Cycle>(extra, st.bindMemExtra);
            const size_t at = st.cls * num_stall_causes
                + static_cast<size_t>(cause);
            n[at * K + r]++;
            n[at * K + d]--;
        }
        const Cycle margin = std::max(step, extra) + 1;
        for (size_t g = 0; g + 1 < K; g++) {
            const Cycle gap = F[g + 1] - F[g];
            const Cycle least = maxoff[g] + margin;
            e.gaps.push_back(gap >= least ? GapBound{least, no_bound}
                                          : GapBound{gap, gap});
        }
        for (size_t at = 0; at < cells; at++)
            for (size_t g = 1; g < K; g++)
                if (const int64_t c = n[at * K + g]) {
                    e.gapStalls.push_back({static_cast<uint16_t>(at),
                                           static_cast<uint16_t>(g), c});
                    delta[at] -= static_cast<uint64_t>(c) * (F[g] - F[0]);
                }
    }
    for (size_t at = 0; at < cells; at++)
        if (delta[at])
            e.stalls.emplace_back(static_cast<uint16_t>(at), delta[at]);

    for (size_t k = 0; k < end.size(); k++) {
        const size_t g = groupOf(F, end[k]);
        for (size_t h = g; h < groupOf(F, end[k] + topsBuf[k]); h++)
            if (e.gaps[h].most == no_bound)
                return false;
        e.floors.push_back({static_cast<uint32_t>(g), end[k] - F[g]});
    }
    return true;
}

Cycle
IterationMemo::fetchAfter(const Edge &e, Cycle floor, Cycle start) const
{
    return e.rebased ? floor - e.lagEnd - s.cfg.frontendDepth
                     : start + e.fetchAdvance;
}

void
IterationMemo::advance(const Edge &e, const std::vector<Cycle> &F,
                       std::vector<Cycle> &out)
{
    out.clear();
    for (const FloorStep &f : e.floors)
        out.push_back(F[f.from] + f.by);
}

bool
IterationMemo::admits(const Edge &e) const
{
    for (size_t g = 0; g < e.gaps.size(); g++) {
        const Cycle gap = floors[g + 1] - floors[g];
        if (gap < e.gaps[g].least || gap > e.gaps[g].most)
            return false;
    }
    return true;
}

void
IterationMemo::addStalls(
    const Edge &e, const std::vector<Cycle> &F,
    std::array<StallVector, isa::num_op_classes> &byClass)
{
    for (const auto &[at, cycles] : e.stalls)
        byClass[at / num_stall_causes][at % num_stall_causes] += cycles;
    for (const GapTerm &t : e.gapStalls)
        byClass[t.at / num_stall_causes][t.at % num_stall_causes] +=
            static_cast<uint64_t>(t.n) * (F[t.group] - F[0]);
}

void
IterationMemo::ran(const OutcomeVector &outcomes, bool atHead)
{
    s.stepLog = nullptr;
    cur = -1;
    int32_t from = std::exchange(startState, -1);
    const int32_t audited = std::exchange(shadow, -1);
    const bool keyed = (atHead || audited >= 0) && capture(endBuf);
    if (audited >= 0) {
        // An audited hit: the core ran it and must agree. It adds no
        // edge, and the memo goes on from the state the hit gives, as
        // it would have without the auditor.
        const Edge &e = edges[audited];
        advance(e, startFloors, hitBuf);
        check(e, from, keyed, hitBuf);
        if (atHead) {
            iterations++;
            begin(e.to, hitBuf);
        }
        return;
    }
    if (!atHead || !keyed)
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
        e.lag = startFloors[0] - (startFetch + depth);
        e.rebased = clustered || s.fetchDetached;
        // Fetch may start later than recorded only if it never bound
        // here and the end floor does not come from fetch (else the
        // end state would be keyed against another floor), or if a
        // redirect tied it to the core before it could bind.
        e.lagFree = s.fetchDetached
            || (!s.fetchBound
                && s.fetchCycle + depth
                    <= std::min(s.retireRing[s.ringPos], s.lastDispatch));
        e.fetchAdvance = s.fetchCycle - startFetch;
        e.lagEnd = endBuf[0] - (s.fetchCycle + depth);
        if (derive(e, from, endBuf)) {
            edges.push_back(std::move(e));
            states[from].edges.push_back(
                static_cast<uint32_t>(edges.size() - 1));
        }
    }
    iterations++;
    begin(id, endBuf);
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
 * that came strictly after it re-bases fetch on the core (rebased).
 * A clustered key has lag 0 throughout: fetch is group 0's floor.
 */
bool
IterationMemo::skip(const OutcomeVector &outcomes)
{
    if (cur < 0)
        return false;
    const Cycle lag = floors[0] - (fetch + s.cfg.frontendDepth);
    for (uint32_t ei : states[cur].edges) {
        const Edge &e = edges[ei];
        if (!(lag == e.lag || (e.lagFree && lag > e.lag))
            || e.outcomes != outcomes || !admits(e))
            continue;
        skipped += e.outcomes.size();
        if (s.auditing) {
            // The core stays real under the auditor: it runs the
            // iteration, and ran() compares it with this edge.
            shadow = static_cast<int32_t>(ei);
            return false;
        }
        addStalls(e, floors, s.stats.stallByClass);
        index += e.outcomes.size();
        advance(e, floors, hitBuf);
        floors.swap(hitBuf);
        fetch = fetchAfter(e, floors[0], fetch);
        cur = e.to;
        iterations++;
        virtualCore = true;
        return true;
    }
    if (virtualCore) {
        restore(states[cur].key, floors);
        virtualCore = false;
        begin(cur, floors);
    }
    return false;
}

void
IterationMemo::check(const Edge &e, int32_t from, bool keyed,
                     const std::vector<Cycle> &hit)
{
    auto fail = [&](const std::string &what) {
        throw AuditError("fast-forward", startIndex, loopHead,
                         "iteration " + std::to_string(iterations)
                             + " from memo state " + std::to_string(from)
                             + " (" + std::to_string(startFloors.size())
                             + " groups): " + what);
    };
    std::array<StallVector, isa::num_op_classes> byClass = startByClass;
    addStalls(e, startFloors, byClass);
    for (size_t cls = 0; cls < isa::num_op_classes; cls++)
        for (size_t c = 0; c < num_stall_causes; c++)
            if (byClass[cls][c] != s.stats.stallByClass[cls][c])
                fail("stall delta of class "
                     + std::string(isa::opClassName(
                         static_cast<isa::OpClass>(cls)))
                     + " cause "
                     + stallCauseName(static_cast<StallCause>(c)) + " is "
                     + std::to_string(s.stats.stallByClass[cls][c]
                                      - startByClass[cls][c])
                     + ", the memo says "
                     + std::to_string(byClass[cls][c]
                                      - startByClass[cls][c]));
    // The hit's end state, keyed afresh: an edge may leave groups
    // closer than group_gap, which a capture would merge.
    std::vector<uint32_t> want = states[e.to].key;
    std::vector<Cycle> P = hit;
    if (clustered) {
        valueBuf.clear();
        forEachValueWord(want.size(), [&](size_t at, bool) {
            valueBuf.push_back(valueOf(P, want[at]));
        });
        P.resize(1);
        encode(want, P);
    }
    if (!keyed || keyBuf != want)
        fail("the core ended in another canonical state than memo state "
             + std::to_string(e.to));
    if (P != endBuf)
        fail("the core's floors differ from the memo's");
    const Cycle fetchWant = fetchAfter(e, P[0], startFetch);
    if (s.fetchCycle != fetchWant)
        fail("fetch cycle " + std::to_string(s.fetchCycle)
             + ", the memo says " + std::to_string(fetchWant));
    const Cycle retireWant = valueOf(P, keyBuf[last_retire_word]);
    if (std::max(s.lastRetire, P[0]) != retireWant)
        fail("retire cycle " + std::to_string(s.lastRetire)
             + ", the memo says " + std::to_string(retireWant));
}

void
IterationMemo::settle()
{
    if (virtualCore) {
        restore(states[cur].key, floors);
        virtualCore = false;
    }
}

} // namespace cryptarch::sim
