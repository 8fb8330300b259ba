/** @file Unit tests for the branch predictor and cycle resources. */

#include <gtest/gtest.h>

#include "sim/branch_pred.hh"
#include "sim/resource.hh"

namespace
{

using namespace cryptarch::sim;

TEST(BranchPredictor, LearnsLoopBranch)
{
    BranchPredictor bp(64);
    // A loop back-edge: taken 99 times, untaken once, repeatedly.
    for (int rep = 0; rep < 10; rep++) {
        for (int i = 0; i < 99; i++)
            bp.predict(0x10, true);
        bp.predict(0x10, false);
    }
    // 2-bit counters miss only the exit (and the first re-entry at
    // most): accuracy must be > 97%.
    EXPECT_GT(1.0 - static_cast<double>(bp.mispredicts()) / bp.lookups(),
              0.97);
}

TEST(BranchPredictor, AlternatingBranchIsHard)
{
    BranchPredictor bp(64);
    for (int i = 0; i < 1000; i++)
        bp.predict(0x20, i % 2 == 0);
    EXPECT_LT(1.0 - static_cast<double>(bp.mispredicts()) / bp.lookups(),
              0.7);
}

TEST(BranchPredictor, CountsMispredicts)
{
    BranchPredictor bp(64);
    bp.predict(0, false); // weakly-taken initial state -> mispredict
    EXPECT_EQ(bp.lookups(), 1u);
    EXPECT_EQ(bp.mispredicts(), 1u);
}

TEST(CycleResource, UnlimitedNeverDelays)
{
    CycleResource r(0);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(r.reserve(7), 7u);
}

TEST(CycleResource, CapacityPushesToLaterCycles)
{
    CycleResource r(2);
    EXPECT_EQ(r.reserve(5), 5u);
    EXPECT_EQ(r.reserve(5), 5u);
    EXPECT_EQ(r.reserve(5), 6u);
    EXPECT_EQ(r.reserve(5), 6u);
    EXPECT_EQ(r.reserve(5), 7u);
}

TEST(CycleResource, MultiUnitReservation)
{
    CycleResource r(2);
    EXPECT_EQ(r.reserve(0, 2), 0u); // takes the whole cycle
    EXPECT_EQ(r.reserve(0, 1), 1u);
    EXPECT_EQ(r.reserve(0, 2), 2u); // cycle 1 has only 1 slot left
}

TEST(CycleResource, BookShowsInBookedAt)
{
    CycleResource r(1);
    EXPECT_EQ(r.bookedAt(3), 0u);
    r.book(3);
    EXPECT_EQ(r.bookedAt(3), 1u);
    EXPECT_EQ(r.bookedAt(4), 0u);
    EXPECT_EQ(r.nextFree(3), 4u);
}

} // namespace
