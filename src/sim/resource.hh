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
 * `cycle & mask`: every probe and booking is one array access, and
 * nextFree() walks consecutive cells instead of paying a hash lookup
 * per losing cycle the way the original std::unordered_map
 * implementation did (kept as the differential reference in
 * tests/sim/cycle_resource_ref.hh).
 *
 * The replacement is bit-identical to that reference by construction,
 * which requires reproducing two behaviors of the map faithfully:
 *
 *  1. Entry bookkeeping. The map created an entry for every *probed*
 *     cycle (operator[] on a full cycle still inserts), and its
 *     amortization gate — "only sweep once the table holds >= 4096
 *     entries" — keys off that entry count. Each cell therefore
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
 *     The cells those probes create are kept in a side table (3), so
 *     the resource reproduces the reference exactly instead of only
 *     on contract-respecting callers.
 *
 * Window invariant: cells outside [base, base + size) are absent from
 * the ring and store the value 0, and every existing ring cell lies in
 * [minExist, hiCycle) ⊆ [base, base + size), with base >= swept.
 * Sliding the window forward across absent cells is therefore free —
 * no zeroing pass — and the window only needs to cover the span
 * between the lowest live booking at or above the swept floor and the
 * highest probed cycle.
 *
 * Two more invariants keep the unlimited-window models from holding
 * or rescanning cycles whose outcome is already known (the DF+Res and
 * DF+Issue replays otherwise rescan the same cycles over and over):
 *
 *  3. Swept floor. Every cell below `swept` (where the last sweep
 *     ended) was zeroed by a sweep, so a cell below it exists only if
 *     touch() created it since. Those phantom cells live in a small
 *     open-addressed side table, not in the ring: the ring's base
 *     stays at or above `swept`, so the window spans only
 *     [swept, hiCycle) and never regrows toward cycle 0. Only an
 *     out-of-window probe below the floor reaches the table; the
 *     in-window path pays nothing for it. The next sweep drops the
 *     table's cells below its end (keeping any above it, for a horizon
 *     that stepped back) and scans the ring only from minExist, so it
 *     removes the cells the map's full sweep would and leaves the same
 *     entry count.
 *
 *  4. Full run. Every cell in [runLo, runHi) holds count >= capacity,
 *     so no unit count fits there. Unit-1 scans establish it (each
 *     cycle they pass is full), and only a sweep, which trims the run,
 *     un-fills a cell. nextFree() jumps over the run without touching
 *     it: a full cell already holds a booking and so already exists,
 *     in the ring or the side table, so touch() would change nothing
 *     there.
 */

#ifndef CRYPTARCH_SIM_RESOURCE_HH
#define CRYPTARCH_SIM_RESOURCE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
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
        uint32_t &v = touch(earliest);
        if (countOf(v) + units <= cap) {
            v += units;
            return earliest;
        }
        Cycle cycle = scanPast(earliest, units);
        book(cycle, units);
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
        if (cap == unlimited || countOf(touch(cycle)) + units <= cap)
            return cycle;
        return scanPast(cycle, units);
    }

    /** Book @p units at @p cycle, which has room for them (the
     *  scheduler found it with nextFree()). */
    void
    book(Cycle cycle, unsigned units = 1)
    {
        if (cap != unlimited)
            touch(cycle) += units;
    }

    /**
     * Book @p units at @p cycle if they fit, with a single cell
     * access. Returns false and books nothing when the cycle is full.
     * The scheduler's joint slot-and-unit reservation is built on
     * this.
     */
    bool
    tryBook(Cycle cycle, unsigned units = 1)
    {
        if (cap == unlimited)
            return true;
        uint32_t &v = touch(cycle);
        if (countOf(v) + units > cap)
            return false;
        v += units;
        return true;
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
        if (minExist >= horizon && phantoms.lowest() >= horizon)
            return;
        Cycle end = horizon < hiCycle ? horizon : hiCycle;
        // Below the swept floor only side-table cells exist: drop those
        // below end and keep the rest (a horizon that stepped back).
        size_t removed = phantoms.dropBelow(end);
        // The ring's cells lie in [minExist, hiCycle), minExist >= base,
        // and the swept cycles are contiguous ring positions (modulo at
        // most one wrap), so sweep them as raw spans — the count-and-
        // zero loop then vectorizes instead of paying a mask and a
        // branch per cycle.
        Cycle c = minExist;
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
        if (end > swept)
            swept = end;
        // Every ring cell below end now reads zero, so lifting the base
        // to the floor is free, and the window never covers a side-
        // table cell.
        if (base < swept)
            base = swept;
        minExist = horizon > base ? horizon : base;
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

    /** Cells the dense ring holds (its window size). Read by tests,
     *  which bound the footprint; the scheduler never needs it. */
    size_t windowCells() const { return cells.size(); }

  private:
    static constexpr uint32_t exists_bit = 0x80000000u;
    static constexpr uint32_t count_mask = exists_bit - 1;
    /** First-allocation window size. Sized so that a resource whose
     *  probes stay near the retirement frontier (one entry per cycle,
     *  swept every prune_threshold entries plus the in-flight
     *  overshoot) almost never regrows: warm-up rebuilds otherwise
     *  show up in replay profiles. Phantom probes below the swept
     *  floor go to the side table, so the unlimited-window models
     *  stay small too: on the 64 KB Optimized replays DF+Issue's
     *  rings never regrow, and a DF+Res pool regrows (to 64K cells
     *  at most) only before its first sweep, while its entries are
     *  still under prune_threshold. */
    static constexpr size_t initial_cells = 16384;
    /** Entry-count gate before retireBefore sweeps — the reference
     *  map's amortization threshold, load-bearing for erase timing. */
    static constexpr size_t prune_threshold = 4096;

    static unsigned countOf(uint32_t v) { return v & count_mask; }

    /**
     * Cells below the swept floor, open-addressed by a multiplicative
     * hash of the cycle with linear probing. A slot is free iff its
     * value is 0: every stored cell exists, so its value carries
     * exists_bit. A sweep drops every cell below its end, so the
     * table holds only the phantom cells created since (plus any a
     * stepped-back horizon kept).
     */
    class PhantomCells
    {
      public:
        /** Units booked at @p cycle; 0 where no cell exists. */
        unsigned
        countAt(Cycle cycle) const
        {
            return slots.empty() ? 0 : countOf(slots[locate(cycle)].value);
        }

        /** The cell at @p cycle, created (value exists_bit) when
         *  absent; @p created says which. */
        uint32_t &
        insert(Cycle cycle, bool &created)
        {
            if (2 * (used + 1) > slots.size())
                grow();
            Slot &s = slots[locate(cycle)];
            created = !s.value;
            if (created) {
                s = {cycle, exists_bit};
                ++used;
                if (cycle < low)
                    low = cycle;
            }
            return s.value;
        }

        /** Lowest stored cycle; all-ones when empty. */
        Cycle lowest() const { return low; }

        /** Drop every cell below @p end and return how many. */
        size_t
        dropBelow(Cycle end)
        {
            if (low >= end)
                return 0;
            std::vector<Slot> kept;
            for (const Slot &s : slots)
                if (s.value && s.cycle >= end)
                    kept.push_back(s);
            const size_t removed = used - kept.size();
            std::fill(slots.begin(), slots.end(), Slot{});
            used = kept.size();
            low = ~Cycle(0);
            for (const Slot &s : kept) {
                slots[locate(s.cycle)] = s;
                if (s.cycle < low)
                    low = s.cycle;
            }
            return removed;
        }

      private:
        struct Slot
        {
            Cycle cycle = 0;
            uint32_t value = 0;
        };

        /** The slot holding @p cycle, or the free slot where it would
         *  go; the table must not be empty. Out of line: only probes
         *  below the swept floor get here, and the callers' in-window
         *  paths stay small. */
        [[gnu::noinline]] size_t
        locate(Cycle cycle) const
        {
            size_t i = (cycle * 0x9E3779B97F4A7C15ull) >> shift;
            while (slots[i].value && slots[i].cycle != cycle)
                i = (i + 1) & (slots.size() - 1);
            return i;
        }

        void
        grow()
        {
            std::vector<Slot> old = std::move(slots);
            slots.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
            shift = 64;
            for (size_t n = slots.size(); n > 1; n >>= 1)
                --shift;
            for (const Slot &s : old)
                if (s.value)
                    slots[locate(s.cycle)] = s;
        }

        std::vector<Slot> slots; ///< power-of-two size, or empty
        unsigned shift = 64;     ///< 64 - log2(slots.size())
        size_t used = 0;
        Cycle low = ~Cycle(0);
    };

    /** Count at @p cycle without creating an entry (map::find). */
    unsigned
    countAt(Cycle cycle) const
    {
        // One compare covers below-window too: cycle < base wraps the
        // unsigned difference past any vector size. Empty cells give
        // size 0, so everything is out of window.
        if (cycle - base >= cells.size())
            return cycle < swept ? phantoms.countAt(cycle) : 0;
        return countOf(cells[cycle & mask]);
    }

    /**
     * Ensure @p cycle has a cell, mark it existing (map::operator[]),
     * and return it. Every probe runs this, so it is forced inline
     * into the scheduler's loops.
     */
    [[gnu::always_inline]] uint32_t &
    touch(Cycle cycle)
    {
        // Single window check (see countAt): below-base wraps, empty
        // cells have size 0 — both land here. Below the swept floor
        // the cell is the side table's; anywhere else the window
        // moves to cover it.
        if (cycle - base >= cells.size()) {
            if (cycle < swept)
                return phantom(cycle);
            reshape(cycle);
        }
        uint32_t &v = cells[cycle & mask];
        if (!(v & exists_bit)) {
            v = exists_bit;
            if (entries == 0 || cycle < minExist)
                minExist = cycle;
            ++entries;
            if (cycle >= hiCycle)
                hiCycle = cycle + 1;
        }
        return v;
    }

    /** touch() below the swept floor: the side table's cell. */
    [[gnu::noinline]] uint32_t &
    phantom(Cycle cycle)
    {
        bool created;
        uint32_t &v = phantoms.insert(cycle, created);
        entries += created;
        return v;
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
        while (countOf(touch(cycle)) + units > cap) {
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

    /** Slide or grow the window so @p cycle (>= swept) becomes
     *  addressable. */
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
        // Live ring cells occupy [lo, hiCycle), lo >= base; everything
        // else in the ring stores 0.
        Cycle lo = entries ? minExist : hiCycle;
        if (cycle < base) {
            // Probe between the swept floor and the window (an
            // unlimited-window model re-probing cycles the horizon
            // already passed). A cell's ring position is cycle & mask
            // — independent of base — so when the live span still
            // fits a window starting at the probe, sliding the base
            // down is free: cells below the old base are absent
            // (store 0) and no cell leaves the new window's top.
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
    Cycle base = 0;    ///< cycle addressed by window start (>= swept)
    Cycle hiCycle = 0; ///< one past the highest existing ring cell
    Cycle minExist = 0; ///< lower bound on the lowest ring cell, >= base
    size_t entries = 0; ///< live entry count (reference map size())
    Cycle swept = 0;    ///< end of the last sweep (invariant 3)
    PhantomCells phantoms; ///< cells created below swept
    Cycle runLo = 0;    ///< known-full run [runLo, runHi) (invariant 4)
    Cycle runHi = 0;
};

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_RESOURCE_HH
