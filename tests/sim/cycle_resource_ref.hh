/**
 * @file
 * The original std::unordered_map CycleResource, kept verbatim as the
 * differential-test reference for the ring-buffer implementation in
 * src/sim/resource.hh. The production ring is bit-identical to this
 * class by construction — including its quirks: reserve()/nextFree()
 * create a map entry for every probed cycle (operator[] inserts even
 * when the cycle is full), and retireBefore() only sweeps once the
 * table holds >= 4096 entries, which is why probes below an erased
 * horizon can observe phantom capacity (load-bearing for the Figure 5
 * unlimited-window models).
 *
 * The reference keeps only the operations the ring still offers: the
 * scheduler books an issue slot once its unit fits, so neither has a
 * rollback, and bookedAt() is the one read-only probe.
 *
 * One fix over the seed version: a min-key watermark skips the sweep
 * when nothing lies below the horizon. The seed re-scanned all >= 4096
 * live entries on every prune call even when the scan could not erase
 * anything; skipping a scan that erases nothing is behavior-preserving.
 */

#ifndef CRYPTARCH_TESTS_CYCLE_RESOURCE_REF_HH
#define CRYPTARCH_TESTS_CYCLE_RESOURCE_REF_HH

#include <cstdint>
#include <unordered_map>

#include "sim/config.hh"
#include "sim/resource.hh" // for sim::Cycle

namespace cryptarch::tests
{

class CycleResourceRef
{
  public:
    explicit CycleResourceRef(unsigned capacity = 0) : cap(capacity) {}

    sim::Cycle
    reserve(sim::Cycle earliest, unsigned units = 1)
    {
        if (cap == sim::unlimited)
            return earliest;
        sim::Cycle cycle = nextFree(earliest, units);
        probe(cycle) += units;
        return cycle;
    }

    /** First free cycle >= @p cycle; every probe — the winner too —
     *  inserts an entry, exactly like the map reserve loop the ring
     *  replaced. */
    sim::Cycle
    nextFree(sim::Cycle cycle, unsigned units = 1)
    {
        if (cap == sim::unlimited)
            return cycle;
        while (probe(cycle) + units > cap)
            cycle++;
        return cycle;
    }

    /** Units booked at @p cycle, without creating an entry. */
    unsigned
    bookedAt(sim::Cycle cycle) const
    {
        auto it = usage.find(cycle);
        return it == usage.end() ? 0 : it->second;
    }

    void
    book(sim::Cycle cycle, unsigned units = 1)
    {
        if (cap != sim::unlimited)
            probe(cycle) += units;
    }

    bool
    tryBook(sim::Cycle cycle, unsigned units = 1)
    {
        if (cap == sim::unlimited)
            return true;
        unsigned &used = probe(cycle);
        if (used + units > cap)
            return false;
        used += units;
        return true;
    }

    void
    retireBefore(sim::Cycle horizon)
    {
        if (cap == sim::unlimited)
            return;
        if (usage.size() < 4096)
            return;
        // Min-key watermark: every erase below the horizon has already
        // happened when the watermark caught up, so the full-table
        // re-scan the seed did on every call is provably a no-op.
        if (minKey >= horizon)
            return;
        for (auto it = usage.begin(); it != usage.end();) {
            if (it->first < horizon)
                it = usage.erase(it);
            else
                ++it;
        }
        minKey = horizon;
    }

    bool limited() const { return cap != sim::unlimited; }

    size_t entryCount() const { return usage.size(); }

  private:
    /** operator[] with watermark maintenance: creates the entry, as
     *  the seed's `usage[cycle]` probes did. */
    unsigned &
    probe(sim::Cycle cycle)
    {
        if (usage.empty() || cycle < minKey)
            minKey = cycle;
        return usage[cycle];
    }

    unsigned cap;
    std::unordered_map<sim::Cycle, unsigned> usage;
    sim::Cycle minKey = 0;
};

} // namespace cryptarch::tests

#endif // CRYPTARCH_TESTS_CYCLE_RESOURCE_REF_HH
