/**
 * @file
 * Differential verification of the ring-buffer CycleResource against
 * the original unordered_map implementation (cycle_resource_ref.hh).
 *
 * The ring claims bit-identical behavior including the reference's
 * quirks — probe-created entries, the >= 4096-entry erase gate, and
 * phantom capacity on probes below an erased horizon — so the property
 * test drives both through long random op sequences (booking walks,
 * tryBook unit probes, bookedAt reads, horizon prunes, deliberate
 * below-horizon probes) and demands every return value and the live
 * entry count agree at every step.
 *
 * The ring's two shortcuts — the known-full run nextFree() jumps over
 * and the side table that holds cells created below the last sweep's
 * end — only engage on long densely booked spans probed from far below
 * the frontier, which the random walk never builds. The dense episodes
 * and the directed tests below drive both, shaped like the DF+Res
 * replay, and bound the ring's footprint on a session-length span.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cycle_resource_ref.hh"
#include "sim/resource.hh"

namespace
{

using cryptarch::sim::Cycle;
using cryptarch::sim::CycleResource;
using cryptarch::tests::CycleResourceRef;

TEST(CycleResourceRing, NextFreeSkipsFullCycles)
{
    CycleResource res(2);
    res.book(10, 2);
    res.book(11, 1);
    EXPECT_EQ(res.nextFree(10), 11u);     // cycle 10 full, 11 has room
    EXPECT_EQ(res.nextFree(10, 2), 12u);  // 2 units skip 10 and 11
    EXPECT_EQ(res.nextFree(12), 12u);     // past every booking: free
}

TEST(CycleResourceRing, NextFreeDoesNotBook)
{
    CycleResource res(1);
    EXPECT_EQ(res.nextFree(5), 5u);
    EXPECT_EQ(res.nextFree(5), 5u);
    EXPECT_EQ(res.bookedAt(5), 0u);
}

TEST(CycleResourceRing, ReserveIsNextFreePlusBook)
{
    CycleResource res(1);
    EXPECT_EQ(res.reserve(7), 7u);
    EXPECT_EQ(res.reserve(7), 8u);
    EXPECT_EQ(res.reserve(0), 0u); // below every booking: free
}

TEST(CycleResourceRing, WindowSlidesAndRegrowsDownward)
{
    CycleResource res(1);
    // March far enough forward that the window must slide many times.
    for (Cycle c = 0; c < 100000; c += 97)
        EXPECT_EQ(res.reserve(c), c);
    // A probe far below the window base must still see those bookings.
    EXPECT_EQ(res.bookedAt(0), 1u);
    EXPECT_EQ(res.reserve(1), 1u);
    EXPECT_EQ(res.bookedAt(1), 1u);
}

TEST(CycleResourceRing, UnlimitedTracksNothing)
{
    CycleResource res(0);
    EXPECT_EQ(res.reserve(42, 100), 42u);
    EXPECT_EQ(res.nextFree(42), 42u);
    EXPECT_EQ(res.bookedAt(42), 0u);
    EXPECT_EQ(res.entryCount(), 0u);
    EXPECT_FALSE(res.limited());
}

/**
 * One random differential episode: identical op streams into the ring
 * and the reference, comparing every observable result. The cycle
 * cursor random-walks forward (like issue frontiers do), with a slice
 * of probes aimed below the last prune horizon to exercise the erased
 * region, and prunes sized to cross the 4096-entry gate.
 */
void
differentialEpisode(unsigned cap, uint32_t seed, int ops)
{
    std::mt19937 rng(seed);
    CycleResource ring(cap);
    CycleResourceRef ref(cap);

    Cycle cursor = 0;
    Cycle horizon = 0;
    const unsigned maxUnits = cap == 0 ? 4 : cap;

    auto pickCycle = [&]() -> Cycle {
        unsigned kind = rng() % 10;
        if (kind == 0 && horizon > 0)
            return rng() % horizon; // below the pruned horizon
        if (kind <= 4)
            return cursor + rng() % 4; // near the frontier
        cursor += rng() % 3;
        return cursor;
    };

    for (int i = 0; i < ops; i++) {
        unsigned units = 1 + rng() % maxUnits;
        Cycle cycle = pickCycle();
        switch (rng() % 6) {
        case 0:
            ASSERT_EQ(ring.reserve(cycle, units), ref.reserve(cycle, units))
                << "reserve(" << cycle << ", " << units << ") op " << i;
            break;
        case 1:
            ASSERT_EQ(ring.nextFree(cycle, units),
                      ref.nextFree(cycle, units))
                << "nextFree(" << cycle << ", " << units << ") op " << i;
            break;
        case 2:
            ASSERT_EQ(ring.bookedAt(cycle), ref.bookedAt(cycle))
                << "bookedAt(" << cycle << ") op " << i;
            break;
        case 3:
            // The scheduler's unit probe in a joint slot+FU reservation.
            ASSERT_EQ(ring.tryBook(cycle, units), ref.tryBook(cycle, units))
                << "tryBook(" << cycle << ", " << units << ") op " << i;
            break;
        case 4:
            ring.book(cycle, units);
            ref.book(cycle, units);
            break;
        case 5:
            horizon = cursor > 5 ? cursor - rng() % 5 : cursor;
            ring.retireBefore(horizon);
            ref.retireBefore(horizon);
            break;
        }
        ASSERT_EQ(ring.entryCount(), ref.entryCount()) << "op " << i;
    }
}

TEST(CycleResourceDifferential, RandomOpsMatchReference)
{
    for (unsigned cap : {1u, 2u, 3u, 4u, 8u})
        differentialEpisode(cap, 0xC0FFEE + cap, 20000);
}

TEST(CycleResourceDifferential, UnlimitedMatchesReference)
{
    differentialEpisode(0, 0xDECAF, 5000);
}

TEST(CycleResourceDifferential, EraseGateAndPhantomCapacity)
{
    // Deterministically cross the 4096-entry gate, prune, and verify
    // both implementations agree that erased cycles read as free
    // again (the phantom capacity the Figure 5 models rely on).
    CycleResource ring(1);
    CycleResourceRef ref(1);
    for (Cycle c = 0; c < 5000; c++) {
        ASSERT_EQ(ring.reserve(c), ref.reserve(c));
    }
    ASSERT_EQ(ring.entryCount(), 5000u);
    ring.retireBefore(4500);
    ref.retireBefore(4500);
    ASSERT_EQ(ring.entryCount(), ref.entryCount());
    ASSERT_EQ(ring.entryCount(), 500u);
    for (Cycle c : {0ull, 100ull, 4499ull}) {
        ASSERT_EQ(ring.bookedAt(c), ref.bookedAt(c)) << c;
        ASSERT_EQ(ring.bookedAt(c), 0u) << c; // erased => free again
        ASSERT_EQ(ring.reserve(c), ref.reserve(c)) << c;
    }
    for (Cycle c : {4500ull, 4999ull}) {
        ASSERT_EQ(ring.bookedAt(c), ref.bookedAt(c)) << c;
        ASSERT_EQ(ring.bookedAt(c), 1u) << c; // survived the prune
    }
}

/**
 * A DF+Res-shaped episode: an unlimited-issue machine with a finite
 * unit pool. Most bookings land just below the frontier, so the pool
 * is booked densely over tens of thousands of cycles; a slice scans
 * up from anywhere between the prune horizon and the frontier (long
 * unit-1 scans over full cycles, which build and reuse the full run),
 * and a slice lands below the horizon (cells created below the last
 * sweep). Every 4096 bookings the horizon is pruned: monotone, or in
 * the @p stepBack variant sometimes lowered, so the next sweep must
 * keep cells recorded above its end. Every returned cycle and entry
 * count must match the reference.
 */
void
denseEpisode(unsigned cap, uint32_t seed, bool stepBack)
{
    std::mt19937 rng(seed);
    CycleResource ring(cap);
    CycleResourceRef ref(cap);

    Cycle frontier = 0;
    Cycle horizon = 0;
    unsigned sweeps = 0;
    unsigned belowHorizon = 0;
    unsigned steppedBack = 0;
    for (int i = 1; i <= 100000; i++) {
        Cycle ready;
        unsigned kind = rng() % 100;
        if (kind < 3 && horizon > 0) {
            ready = rng() % horizon;
            belowHorizon++;
        } else if (kind < 8) {
            ready = horizon + rng() % (frontier - horizon + 1);
        } else {
            ready = frontier > 8 ? frontier - rng() % 8 : frontier;
        }
        const unsigned units = cap > 1 && rng() % 4 == 0 ? cap : 1;
        const Cycle got = ring.reserve(ready, units);
        ASSERT_EQ(got, ref.reserve(ready, units))
            << "reserve(" << ready << ", " << units << ") op " << i;
        if (got > frontier)
            frontier = got;
        ASSERT_EQ(ring.entryCount(), ref.entryCount()) << "op " << i;

        if (i % 4096 == 0) {
            if (stepBack && rng() % 3 == 0 && horizon > 0) {
                horizon -= rng() % (std::min<Cycle>(horizon, 3000) + 1);
                steppedBack++;
            } else {
                const Cycle lag = 2000 + rng() % 4000;
                if (frontier > lag && frontier - lag > horizon)
                    horizon = frontier - lag;
            }
            const size_t before = ring.entryCount();
            ring.retireBefore(horizon);
            ref.retireBefore(horizon);
            ASSERT_EQ(ring.entryCount(), ref.entryCount())
                << "retireBefore(" << horizon << ") op " << i;
            sweeps += ring.entryCount() < before;
        }
    }
    // The episode really reached the states it exists for.
    EXPECT_GT(frontier, 50000u);
    EXPECT_GT(sweeps, 8u);
    EXPECT_GT(belowHorizon, 1000u);
    if (stepBack) {
        EXPECT_GT(steppedBack, 0u);
    }
}

TEST(CycleResourceDifferential, DenseMonotoneHorizonsMatchReference)
{
    for (unsigned cap : {1u, 2u})
        denseEpisode(cap, 0x5EED + cap, false);
}

TEST(CycleResourceDifferential, DenseSteppedBackHorizonsMatchReference)
{
    for (unsigned cap : {1u, 2u})
        denseEpisode(cap, 0xBAC4 + cap, true);
}

TEST(CycleResourceDifferential, FullRunTrimmedByPruneAndCellsBelowSweep)
{
    CycleResource ring(1);
    CycleResourceRef ref(1);
    auto same = [&](const char *what) {
        ASSERT_EQ(ring.entryCount(), ref.entryCount()) << what;
    };
    auto nextFree = [&](Cycle c) {
        const Cycle got = ring.nextFree(c);
        EXPECT_EQ(got, ref.nextFree(c)) << "nextFree(" << c << ")";
        return got;
    };
    auto reserve = [&](Cycle c) {
        const Cycle got = ring.reserve(c);
        EXPECT_EQ(got, ref.reserve(c)) << "reserve(" << c << ")";
        return got;
    };
    auto prune = [&](Cycle h) {
        ring.retireBefore(h);
        ref.retireBefore(h);
    };

    for (Cycle c = 0; c < 6000; c++)
        reserve(c);
    // A unit-1 scan across the whole booked span makes it a full run.
    EXPECT_EQ(nextFree(0), 6000u);
    same("after the long scan");
    // The prune erases the run's lower half: those cycles read free
    // again (phantom capacity), the upper half is still skipped.
    prune(3000);
    same("after the first prune");
    ASSERT_EQ(ring.entryCount(), 3001u); // 3000..5999 plus probed 6000
    EXPECT_EQ(nextFree(2999), 2999u);
    EXPECT_EQ(nextFree(3000), 6000u);
    EXPECT_EQ(nextFree(100), 100u);
    same("after probing both sides of the trim");
    // Cells created below the sweep's end, some of which a stepped-
    // back sweep must keep.
    EXPECT_EQ(reserve(1000), 1000u);
    EXPECT_EQ(reserve(1000), 1001u);
    EXPECT_EQ(reserve(2500), 2500u);
    for (Cycle c = 6000; c < 7200; c++)
        reserve(c);
    same("before the stepped-back prune");
    prune(2000); // drops 100, 1000 and 1001; keeps 2500 and 2999
    same("after the stepped-back prune");
    EXPECT_EQ(ring.bookedAt(1000), 0u);
    EXPECT_EQ(ring.bookedAt(2500), 1u);
    EXPECT_EQ(nextFree(2400), 2400u);
    EXPECT_EQ(nextFree(2500), 2501u);
    for (Cycle c = 7200; c < 9000; c++)
        reserve(c);
    // Extend the run over the new bookings, then trim it again.
    EXPECT_EQ(nextFree(3000), 9000u);
    prune(6500);
    same("after the forward prune");
    ASSERT_EQ(ring.entryCount(), 2501u); // 6500..8999 plus probed 9000
    EXPECT_EQ(ring.bookedAt(2500), 0u);
    EXPECT_EQ(ring.bookedAt(6499), 0u);
    EXPECT_EQ(nextFree(6400), 6400u);
    EXPECT_EQ(nextFree(6500), 9000u);
    same("at the end");
}

/**
 * DF+Res-shaped footprint: the booking frontier walks past 10^7 cycles
 * with a gated sweep every 4096 bookings, and after every sweep a few
 * probes land at cycles 0-63 and at a slow second frontier (the fetch
 * clock of an unlimited-fetch machine), far below the swept floor.
 * Every result must match the reference, and the ring must stay within
 * 64K cells: the phantom cells those probes create belong to the side
 * table, not to a window reaching back toward cycle 0.
 */
TEST(CycleResourceDifferential, PhantomProbesKeepTheRingSmall)
{
    constexpr size_t max_cells = 64 * 1024;
    std::mt19937 rng(0xF007);
    CycleResource ring(2);
    CycleResourceRef ref(2);

    Cycle frontier = 0;
    Cycle slow = 0;
    unsigned sweeps = 0;
    size_t widest = 0;
    auto reserve = [&](Cycle c, unsigned units, int op) {
        const Cycle got = ring.reserve(c, units);
        ASSERT_EQ(got, ref.reserve(c, units))
            << "reserve(" << c << ", " << units << ") op " << op;
        ASSERT_EQ(ring.entryCount(), ref.entryCount()) << "op " << op;
    };
    for (int i = 1; frontier < 10'000'000; i++) {
        frontier += 1 + rng() % 15;
        const unsigned units = rng() % 4 == 0 ? 2 : 1;
        reserve(frontier > 8 ? frontier - rng() % 8 : frontier, units, i);
        if (i % 4096)
            continue;
        const size_t before = ring.entryCount();
        ring.retireBefore(frontier - 2000);
        ref.retireBefore(frontier - 2000);
        ASSERT_EQ(ring.entryCount(), ref.entryCount()) << "sweep op " << i;
        sweeps += ring.entryCount() < before;
        slow += 64;
        for (int k = 0; k < 8; k++) {
            reserve(rng() % 64, 1, i);
            reserve(slow + rng() % 16, 1 + rng() % 2, i);
            // A unit probe below the floor.
            const Cycle c = rng() % 64;
            ASSERT_EQ(ring.tryBook(c), ref.tryBook(c))
                << "tryBook(" << c << ") op " << i;
            ASSERT_EQ(ring.bookedAt(c), ref.bookedAt(c)) << "op " << i;
        }
        widest = std::max(widest, ring.windowCells());
        ASSERT_LE(ring.windowCells(), max_cells) << "sweep op " << i;
    }
    EXPECT_GT(sweeps, 200u);
    EXPECT_LE(widest, max_cells);
}

/**
 * A stepped-back horizon leaves side-table cells in [end, swept); a
 * later probe then grows the window forward or slides it down. Neither
 * may cover those cells from the ring side, which reads them as absent
 * and frees a cycle the reference still holds full.
 */
TEST(CycleResourceDifferential, WindowNeverShadowsCellsBelowTheFloor)
{
    CycleResource ring(1);
    CycleResourceRef ref(1);
    auto same = [&](const char *what) {
        ASSERT_EQ(ring.entryCount(), ref.entryCount()) << what;
    };
    auto reserve = [&](Cycle c) {
        const Cycle got = ring.reserve(c);
        EXPECT_EQ(got, ref.reserve(c)) << "reserve(" << c << ")";
        return got;
    };
    auto nextFree = [&](Cycle c) {
        const Cycle got = ring.nextFree(c);
        EXPECT_EQ(got, ref.nextFree(c)) << "nextFree(" << c << ")";
        return got;
    };
    auto prune = [&](Cycle h) {
        ring.retireBefore(h);
        ref.retireBefore(h);
    };

    for (Cycle c = 0; c < 6000; c++)
        reserve(c);
    prune(6000); // sweeps everything: the floor is at 6000
    same("after the first prune");
    ASSERT_EQ(ring.entryCount(), 0u);
    for (Cycle c = 10000; c < 15000; c++)
        reserve(c);
    // Phantom cells below the floor.
    EXPECT_EQ(reserve(5500), 5500u);
    EXPECT_EQ(reserve(5800), 5800u);
    // The window's base moves up past the floor.
    EXPECT_EQ(reserve(30000), 30000u);
    same("before the stepped-back prune");
    prune(5600); // drops 5500, keeps 5800 in [end, swept)
    same("after the stepped-back prune");
    EXPECT_EQ(ring.bookedAt(5500), 0u);
    EXPECT_EQ(ring.bookedAt(5800), 1u);

    // Forward growth right after the stepped-back sweep.
    EXPECT_EQ(reserve(70000), 70000u);
    EXPECT_EQ(ring.bookedAt(5800), 1u);
    EXPECT_EQ(nextFree(5800), 5801u);
    same("after growing forward");
    // Slide down onto the floor, then below the old base.
    EXPECT_EQ(reserve(6000), 6000u);
    EXPECT_EQ(reserve(7000), 7000u);
    EXPECT_EQ(ring.bookedAt(5800), 1u);
    EXPECT_EQ(nextFree(5800), 5801u);
    EXPECT_EQ(reserve(5799), 5799u);
    EXPECT_EQ(reserve(5799), 5801u);
    same("after sliding down");
    // A later forward sweep drops the kept cell with the rest.
    for (Cycle c = 70001; c < 75000; c++)
        reserve(c);
    prune(72000);
    same("after the forward prune");
    EXPECT_EQ(ring.bookedAt(5800), 0u);
    EXPECT_EQ(nextFree(5800), 5800u);
    same("at the end");
}

TEST(CycleResourceDifferential, BelowGateNothingIsErased)
{
    CycleResource ring(1);
    CycleResourceRef ref(1);
    for (Cycle c = 0; c < 1000; c++)
        ASSERT_EQ(ring.reserve(c), ref.reserve(c));
    ring.retireBefore(1000);
    ref.retireBefore(1000);
    ASSERT_EQ(ring.entryCount(), ref.entryCount());
    ASSERT_EQ(ring.entryCount(), 1000u); // gate not crossed: no sweep
    ASSERT_EQ(ring.bookedAt(500), 1u);
}

} // namespace
