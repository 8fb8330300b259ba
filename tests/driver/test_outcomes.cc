/**
 * @file
 * Sweep classification of the hardening outcomes: a config the
 * admission layer refuses becomes `rejected`, a watchdog trip becomes
 * `stalled` — in thread and process isolation alike — and the journal
 * resumes both without re-running them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/json.hh"
#include "driver/sweep.hh"
#include "driver/trace.hh"

namespace
{

using namespace cryptarch;
using driver::CellOutcome;
using driver::SweepCell;
using driver::SweepOptions;
using driver::SweepResult;
using kernels::KernelVariant;
using sim::MachineConfig;

/** One healthy cell, then one on @p bad. */
std::vector<SweepCell>
mixedGrid(const MachineConfig &bad)
{
    return {
        {crypto::CipherId::IDEA, KernelVariant::BaselineRot,
         MachineConfig::fourWide(), 512},
        {crypto::CipherId::IDEA, KernelVariant::BaselineRot, bad, 512},
    };
}

/** The admission layer refuses an L2 hit slower than memory. */
std::vector<SweepCell>
rejectedGrid()
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.name = "4W-slow-l2";
    cfg.l2HitLat = cfg.memLat + 1;
    return mixedGrid(cfg);
}

/**
 * A 1-slot multiplier pool is admissible, but IDEA's baseline kernel
 * issues 64-bit MULQs, which can never book it: the watchdog fires.
 */
std::vector<SweepCell>
stalledGrid()
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.name = "4W-mul1";
    cfg.mulHalfSlots = 1;
    return mixedGrid(cfg);
}

SweepOptions
processOptions()
{
    SweepOptions opts;
    opts.isolation = driver::SweepIsolation::Process;
    return opts;
}

std::string
benchJsonString(const std::vector<SweepResult> &results,
                const std::string &tag)
{
    std::string path = ::testing::TempDir() + "BENCH_oc_" + tag + ".json";
    driver::writeBenchJson(path, "outcomes", results);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return buf.str();
}

void
expectRejectedGrid(const std::vector<SweepResult> &results)
{
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok()) << results[0].message;
    EXPECT_GT(results[0].stats.cycles, 0u);
    EXPECT_EQ(results[1].outcome, CellOutcome::Rejected);
    EXPECT_NE(results[1].message.find("inconsistent-latency"),
              std::string::npos)
        << results[1].message;
    EXPECT_EQ(results[1].stats.cycles, 0u);
}

void
expectStalledGrid(const std::vector<SweepResult> &results)
{
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok()) << results[0].message;
    EXPECT_EQ(results[1].outcome, CellOutcome::Stalled);
    EXPECT_NE(results[1].message.find("no forward progress"),
              std::string::npos)
        << results[1].message;
    EXPECT_EQ(results[1].stats.cycles, 0u);
}

TEST(Outcomes, RejectedInThreadAndProcessModes)
{
    auto cells = rejectedGrid();
    auto threadResults = driver::runCells(cells, SweepOptions{});
    expectRejectedGrid(threadResults);

    // Process isolation classifies identically: ConfigRejected is
    // deterministic, so the worker reports it typed (no retry, no
    // crash) and the JSON matches the thread run byte for byte.
    auto processResults = driver::runCells(cells, processOptions());
    expectRejectedGrid(processResults);
    EXPECT_EQ(benchJsonString(threadResults, "thread"),
              benchJsonString(processResults, "process"));
}

TEST(Outcomes, StalledInThreadAndProcessModes)
{
    // The forward-progress watchdog converts the MULQ livelock into
    // the `stalled` outcome, in worker processes too.
    auto cells = stalledGrid();
    auto threadResults = driver::runCells(cells, SweepOptions{});
    expectStalledGrid(threadResults);

    auto processResults = driver::runCells(cells, processOptions());
    expectStalledGrid(processResults);
    EXPECT_EQ(benchJsonString(threadResults, "thread"),
              benchJsonString(processResults, "process"));
}

TEST(Outcomes, JournalResumeSkipsRejectedCells)
{
    auto cells = rejectedGrid();
    const std::string path =
        ::testing::TempDir() + "journal_rejected.bin";
    std::remove(path.c_str());

    SweepOptions opts;
    opts.journalPath = path;
    auto first = driver::runCells(cells, opts);
    expectRejectedGrid(first);

    // A rejected outcome is journaled like any terminal result: the
    // resumed run replays it from the record instead of re-validating.
    const uint64_t before = driver::functionalRuns();
    auto second = driver::runCells(cells, opts);
    EXPECT_EQ(driver::functionalRuns() - before, 0u);
    expectRejectedGrid(second);
    EXPECT_EQ(benchJsonString(first, "jfirst"),
              benchJsonString(second, "jsecond"));
    std::remove(path.c_str());
}

TEST(Outcomes, JournalResumeSkipsStalledCells)
{
    auto cells = stalledGrid();
    const std::string path =
        ::testing::TempDir() + "journal_stalled.bin";
    std::remove(path.c_str());

    SweepOptions opts;
    opts.isolation = driver::SweepIsolation::Process;
    opts.journalPath = path;
    auto first = driver::runCells(cells, opts);
    expectStalledGrid(first);

    // Resume under thread isolation so the in-process functionalRuns
    // counter can witness the skip — and prove the journal record
    // format carries the new outcome across isolation modes.
    SweepOptions resumeOpts;
    resumeOpts.journalPath = path;
    const uint64_t before = driver::functionalRuns();
    auto second = driver::runCells(cells, resumeOpts);
    EXPECT_EQ(driver::functionalRuns() - before, 0u);
    expectStalledGrid(second);
    EXPECT_EQ(benchJsonString(first, "sfirst"),
              benchJsonString(second, "ssecond"));
    std::remove(path.c_str());
}

TEST(Outcomes, BenchJsonCountsTheNewOutcomes)
{
    auto cells = rejectedGrid();
    auto results = driver::runCells(cells, SweepOptions{});
    const std::string json = benchJsonString(results, "counts");
    EXPECT_NE(json.find("\"schema\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"rejected\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"stalled\": 0"), std::string::npos) << json;
    EXPECT_NE(json.find("\"outcome\": \"rejected\""), std::string::npos)
        << json;
}

} // namespace
