/**
 * @file
 * Per-cycle resource reservation used by the out-of-order scheduler.
 *
 * A CycleResource models a pool with fixed per-cycle capacity (issue
 * slots, ALUs, cache ports, multiplier half-slots). reserve() finds the
 * first cycle at or after a lower bound with spare capacity and books
 * it.
 *
 * Bookkeeping is a power-of-two sliding-window ring buffer indexed by
 * `cycle & mask`: every probe, booking and rollback is one array
 * access, and nextFree() walks consecutive cells instead of paying a
 * hash lookup per losing cycle the way the original
 * std::unordered_map implementation did (kept as the differential
 * reference in tests/sim/cycle_resource_ref.hh).
 *
 * The replacement is bit-identical to that reference by construction,
 * which requires reproducing two behaviors of the map faithfully:
 *
 *  1. Entry bookkeeping. The map created an entry for every *probed*
 *     cycle (operator[] on a full cycle still inserts), and its
 *     amortization gate — "only sweep once the table holds >= 4096
 *     entries" — keys off that entry count. Each ring cell therefore
 *     carries an exists bit next to its 31-bit count, and `entries`
 *     tracks exactly what the map's size() would be.
 *
 *  2. Erase timing. retireBefore() drops bookkeeping below the
 *     horizon only when `entries` crossed the threshold, exactly like
 *     the reference. This matters because the scheduler's horizon for
 *     unlimited-window machines (the Figure 5 DF-isolation models) is
 *     not a true lower bound on future probes: probes below an erased
 *     horizon do occur there, find the count reset to zero, and that
 *     phantom capacity is part of the published per-model numbers.
 *     The ring keeps those low cells addressable (the window slides
 *     only across absent cells, and re-grows downward if a probe
 *     lands below the base), so it reproduces the reference exactly
 *     instead of only on contract-respecting callers.
 *
 * Window invariant: cells outside [base, base + size) are absent
 * (count 0, no entry), absent cells store the value 0, and every
 * existing cell lies in [minExist, hiCycle) ⊆ [base, base + size).
 * Sliding the window forward across absent cells is therefore free —
 * no zeroing pass — and the window only needs to cover the span
 * between the lowest live booking and the highest probed cycle (the
 * max in-flight latency for well-behaved callers).
 *
 * Two more invariants let the unlimited-window models skip work whose
 * outcome is already known (the DF+Res and DF+Issue replays otherwise
 * rescan the same cycles over and over):
 *
 *  3. Swept floor. Every cell below `swept` (where the last sweep
 *     ended) was zeroed by a sweep, so a cell below it exists only if
 *     touch() created it since — and touch() records exactly those in
 *     `belowSwept`. The next sweep zeroes the recorded cells and scans
 *     only [max(minExist, swept), end) linearly, instead of re-zeroing
 *     the whole span from the lowest phantom probe up; it removes the
 *     same cells and leaves the same entry count.
 *
 *  4. Full run. Every cell in [runLo, runHi) holds count >= capacity,
 *     so no unit count fits there. Unit-1 scans establish it (each
 *     cycle they pass is full), and nothing un-fills a cell except a
 *     sweep, which trims the run, and unbook(), which only undoes a
 *     tryBook that succeeded on a cell that was not full. nextFree()
 *     jumps over the run without touching it: a full cell already
 *     holds a booking and so already exists, so touch() would change
 *     nothing there.
 */

#ifndef CRYPTARCH_SIM_RESOURCE_HH
#define CRYPTARCH_SIM_RESOURCE_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"

namespace cryptarch::sim
{

/** Cycle type used throughout the timing model. */
using Cycle = uint64_t;

class CycleResource
{
  public:
    /** @param capacity units available per cycle; 0 = unlimited. */
    explicit CycleResource(unsigned capacity = 0) : cap(capacity) {}

    /**
     * Book @p units at the first cycle >= @p earliest with room and
     * return it. Unlimited resources return @p earliest unchanged.
     */
    Cycle
    reserve(Cycle earliest, unsigned units = 1)
    {
        if (cap == unlimited)
            return earliest;
        Cycle cycle = nextFree(earliest, units);
        bookProbed(cycle, units);
        return cycle;
    }

    /**
     * First cycle >= @p cycle with room for @p units, without booking
     * it. Every probed cycle — the winner included — is recorded as an
     * entry, exactly like the reference map's reserve loop
     * (operator[] inserts on every probe, and the erase amortization
     * keys off the entry count), so this is not const. The scan
     * terminates at the first cycle past the highest existing entry,
     * whose cell necessarily reads zero. @p units must fit the
     * capacity (the reference loop diverges otherwise too).
     *
     * Past the first probe, cycles in the known-full run are skipped
     * without a touch (they already exist), and a unit-1 scan adds
     * what it passed to the run (scanPast).
     */
    Cycle
    nextFree(Cycle cycle, unsigned units = 1)
    {
        if (cap == unlimited || touch(cycle) + units <= cap)
            return cycle;
        return scanPast(cycle, units);
    }

    /** True when @p units fit at @p cycle without booking them. */
    bool
    canReserve(Cycle cycle, unsigned units = 1) const
    {
        if (cap == unlimited)
            return true;
        return countAt(cycle) + units <= cap;
    }

    /** Book @p units at @p cycle; caller checked canReserve. */
    void
    book(Cycle cycle, unsigned units = 1)
    {
        if (cap == unlimited)
            return;
        touch(cycle);
        cells[cycle & mask] += units;
    }

    /**
     * Book @p units at a cycle this resource just returned from
     * nextFree(): the winning cell was touched by the scan, so the
     * entry exists and a single raw add suffices (the issueOf probe
     * loop's companion to nextFree).
     */
    void
    bookProbed(Cycle cycle, unsigned units = 1)
    {
        if (cap != unlimited)
            cells[cycle & mask] += units;
    }

    /**
     * Book @p units at @p cycle if they fit, with a single cell
     * access (canReserve+book costs two). Returns false and books
     * nothing when the cycle is full. The scheduler's joint
     * slot-and-unit reservation is built on this.
     */
    bool
    tryBook(Cycle cycle, unsigned units = 1)
    {
        if (cap == unlimited)
            return true;
        if (touch(cycle) + units > cap)
            return false;
        cells[cycle & mask] += units;
        return true;
    }

    /**
     * Undo a successful tryBook at @p cycle (joint-reservation
     * rollback). Only valid immediately after that tryBook — the cell
     * must still be inside the window.
     */
    void
    unbook(Cycle cycle, unsigned units = 1)
    {
        if (cap != unlimited)
            cells[cycle & mask] -= units;
    }

    /**
     * Drop bookkeeping for cycles below @p horizon. Matches the
     * reference map exactly: the sweep only runs once the structure
     * holds >= 4096 entries (and is skipped outright when the minimum
     * existing entry is already at or above the horizon — the
     * watermark the reference implementation also applies).
     */
    void
    retireBefore(Cycle horizon)
    {
        if (cap == unlimited || entries < prune_threshold)
            return;
        if (minExist >= horizon)
            return;
        Cycle end = horizon < hiCycle ? horizon : hiCycle;
        // Below the swept floor only recorded cells exist: zero those
        // below end and keep the rest (a horizon that stepped back).
        size_t removed = 0;
        size_t kept = 0;
        for (Cycle r : belowSwept) {
            if (r < end) {
                cells[r & mask] = 0;
                ++removed;
            } else {
                belowSwept[kept++] = r;
            }
        }
        belowSwept.resize(kept);
        // The swept cycles are contiguous ring positions (modulo at
        // most one wrap), so sweep them as raw spans — the count-and-
        // zero loop then vectorizes instead of paying a mask and a
        // branch per cycle.
        Cycle c = minExist > swept ? minExist : swept;
        while (c < end) {
            size_t pos = c & mask;
            size_t span = cells.size() - pos;
            if (end - c < span)
                span = end - c;
            uint32_t *cell = cells.data() + pos;
            for (size_t i = 0; i < span; i++) {
                removed += cell[i] != 0;
                cell[i] = 0;
            }
            c += span;
        }
        entries -= removed;
        minExist = horizon;
        if (end > swept)
            swept = end;
        // Every cell below end now reads zero.
        if (runHi <= end)
            runLo = runHi = 0;
        else if (runLo < end)
            runLo = end;
    }

    bool limited() const { return cap != unlimited; }

    /** Per-cycle capacity (0 = unlimited). */
    unsigned capacity() const { return cap; }

    /**
     * Units currently booked at @p cycle, without creating an entry.
     * The invariant auditor checks bookings never exceed capacity;
     * the scheduler itself never needs this read-only probe.
     */
    unsigned bookedAt(Cycle cycle) const { return countAt(cycle); }

    /** Number of live entries (the reference map's size()). */
    size_t entryCount() const { return entries; }

  private:
    static constexpr uint32_t exists_bit = 0x80000000u;
    static constexpr uint32_t count_mask = exists_bit - 1;
    /** First-allocation window size. Sized so that a resource whose
     *  probes stay near the retirement frontier (one entry per cycle,
     *  swept every prune_threshold entries plus the in-flight
     *  overshoot) almost never regrows: warm-up rebuilds otherwise
     *  show up in replay profiles. Unlimited-window models do regrow —
     *  their phantom probes reach back toward cycle 0, so the window
     *  grows to the whole cycle span (a 64 KB 3DES DF+Res replay
     *  regrows its resources' windows 20 times in all). */
    static constexpr size_t initial_cells = 16384;
    /** Entry-count gate before retireBefore sweeps — the reference
     *  map's amortization threshold, load-bearing for erase timing. */
    static constexpr size_t prune_threshold = 4096;

    /** Count at @p cycle without creating an entry (map::find). */
    unsigned
    countAt(Cycle cycle) const
    {
        // One compare covers below-window too: cycle < base wraps the
        // unsigned difference past any vector size. Empty cells give
        // size 0, so everything is out of window.
        if (cycle - base >= cells.size())
            return 0;
        return cells[cycle & mask] & count_mask;
    }

    /**
     * Ensure @p cycle has a cell inside the window, mark it existing
     * (map::operator[]), and return its current count. Every probe
     * runs this, so it is forced inline into the scheduler's loops.
     */
    [[gnu::always_inline]] unsigned
    touch(Cycle cycle)
    {
        // Single window check (see countAt): below-base wraps, empty
        // cells have size 0 — both land in reshape.
        if (cycle - base >= cells.size())
            reshape(cycle);
        uint32_t &v = cells[cycle & mask];
        if (!(v & exists_bit)) {
            v = exists_bit;
            if (cycle < swept) [[unlikely]]
                belowSwept.push_back(cycle);
            if (entries == 0 || cycle < minExist)
                minExist = cycle;
            ++entries;
            if (cycle >= hiCycle)
                hiCycle = cycle + 1;
        }
        return v & count_mask;
    }

    /**
     * nextFree() after its first probe, at @p full, failed: the rest
     * of the scan, kept out of line so the common one-probe call stays
     * small enough to inline into the scheduler's issue loop.
     */
    [[gnu::noinline]] Cycle
    scanPast(Cycle full, unsigned units)
    {
        Cycle cycle = full + 1;
        // One unsigned compare: cycle < runLo wraps past the run size.
        if (cycle - runLo < runHi - runLo)
            cycle = runHi;
        while (touch(cycle) + units > cap) {
            if (++cycle == runLo)
                cycle = runHi;
        }
        if (units == 1)
            noteFull(full, cycle);
        return cycle;
    }

    /** Record that every cycle in [@p from, @p to) is full: merge
     *  with the run when the two overlap or touch, else keep the
     *  longer of the two. */
    void
    noteFull(Cycle from, Cycle to)
    {
        if (from <= runHi && to >= runLo) {
            if (from < runLo)
                runLo = from;
            if (to > runHi)
                runHi = to;
        } else if (to - from > runHi - runLo) {
            runLo = from;
            runHi = to;
        }
    }

    /** Slide or grow the window so @p cycle becomes addressable. */
    void
    reshape(Cycle cycle)
    {
        if (cells.empty()) {
            cells.assign(initial_cells, 0);
            mask = cells.size() - 1;
            base = cycle;
            hiCycle = cycle;
            minExist = cycle;
            return;
        }
        // Live cells occupy [lo, hiCycle); everything else stores 0.
        Cycle lo = entries ? minExist : hiCycle;
        if (cycle < base) {
            // Probe below the window (an unlimited-window model
            // re-probing cycles the horizon already passed). A cell's
            // ring position is cycle & mask — independent of base —
            // so when the live span still fits a window starting at
            // the probe, sliding the base down is free: cells below
            // the old base are absent (store 0) and no cell leaves
            // the new window's top.
            if (hiCycle - cycle <= cells.size()) {
                base = cycle;
                return;
            }
            // Otherwise re-grow so probe and live span fit together.
            rebuild(cycle, lo, cycle);
            return;
        }
        // Slide forward across absent cells — they already store 0,
        // so advancing the base costs nothing.
        Cycle needBase = cycle - cells.size() + 1;
        if (needBase <= lo) {
            base = needBase;
            return;
        }
        // The live span itself no longer fits: grow.
        rebuild(lo, lo, cycle);
    }

    /** Reallocate so the window starts at @p newBase and covers both
     *  every live cell in [@p lo, hiCycle) and @p probe. */
    void
    rebuild(Cycle newBase, Cycle lo, Cycle probe)
    {
        Cycle top = hiCycle > probe + 1 ? hiCycle : probe + 1;
        Cycle span = top - newBase;
        size_t newSize = cells.size();
        while (newSize < span)
            newSize *= 2;
        std::vector<uint32_t> next(newSize, 0);
        size_t newMask = newSize - 1;
        for (Cycle c = lo; c < hiCycle; ++c)
            next[c & newMask] = cells[c & mask];
        cells.swap(next);
        mask = newMask;
        base = newBase;
    }

    unsigned cap;
    std::vector<uint32_t> cells; ///< exists_bit | 31-bit unit count
    size_t mask = 0;
    Cycle base = 0;    ///< cycle addressed by window start
    Cycle hiCycle = 0; ///< one past the highest existing cell
    Cycle minExist = 0; ///< lower bound on the lowest existing cell
    size_t entries = 0; ///< live entry count (reference map size())
    Cycle swept = 0;    ///< end of the last sweep (invariant 3)
    std::vector<Cycle> belowSwept; ///< cells created below swept
    Cycle runLo = 0;    ///< known-full run [runLo, runHi) (invariant 4)
    Cycle runHi = 0;
};

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_RESOURCE_HH
