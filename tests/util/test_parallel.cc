/**
 * @file
 * util::parallelFor: every index runs exactly once for any task and
 * worker count, and an exception from a task reaches the caller.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/parallel.hh"

namespace
{

using namespace cryptarch;

TEST(Parallel, RunsEachIndexOnce)
{
    for (size_t n : {0u, 1u, 3u, 100u}) {
        for (unsigned threads : {0u, 1u, 2u, 8u}) {
            std::vector<std::atomic<int>> visits(n);
            util::parallelFor(n, threads, [&](size_t i) {
                visits[i].fetch_add(1);
            });
            for (size_t i = 0; i < n; i++)
                EXPECT_EQ(visits[i].load(), 1)
                    << "n=" << n << " threads=" << threads << " i=" << i;
        }
    }
}

TEST(Parallel, WorkerCountIsClampedToTasks)
{
    EXPECT_EQ(util::workerCount(0, 8), 1u);
    EXPECT_EQ(util::workerCount(3, 8), 3u);
    EXPECT_EQ(util::workerCount(100, 2), 2u);
    EXPECT_GE(util::workerCount(100, 0), 1u);
}

TEST(Parallel, RethrowsTaskException)
{
    EXPECT_THROW(util::parallelFor(50, 4,
                                   [](size_t i) {
                                       if (i == 17)
                                           throw std::runtime_error("x");
                                   }),
                 std::runtime_error);
}

} // namespace
