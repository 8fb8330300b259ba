/**
 * @file
 * Crash-safe sweep layer tests: process isolation reproduces the
 * thread pool's results byte for byte, host-level faults (worker
 * death, hangs) cost exactly the faulted cell, and the checkpoint
 * journal resumes killed sweeps — while rejecting corrupt or
 * mismatched journal files with typed errors instead of trusting
 * them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "driver/json.hh"
#include "driver/procpool.hh"
#include "driver/sweep.hh"
#include "driver/trace.hh"

namespace
{

using namespace cryptarch;
using driver::CellOutcome;
using driver::JournalError;
using driver::JournalErrorKind;
using driver::SweepCell;
using driver::SweepJournal;
using driver::SweepOptions;
using driver::SweepResult;
using kernels::KernelVariant;
using sim::MachineConfig;

/** Arms CRYPTARCH_SWEEP_CHAOS for one scope. */
class ChaosGuard
{
  public:
    explicit ChaosGuard(const std::string &spec)
    {
        ::setenv("CRYPTARCH_SWEEP_CHAOS", spec.c_str(), 1);
    }
    ~ChaosGuard() { ::unsetenv("CRYPTARCH_SWEEP_CHAOS"); }
};

/** A cheap 4-cell grid: two RC4 kernels x two models. */
std::vector<SweepCell>
smallGrid()
{
    return {
        {crypto::CipherId::RC4, KernelVariant::Optimized,
         MachineConfig::fourWide(), 512},
        {crypto::CipherId::RC4, KernelVariant::Optimized,
         MachineConfig::dataflow(), 512},
        {crypto::CipherId::Blowfish, KernelVariant::Optimized,
         MachineConfig::fourWide(), 512},
        {crypto::CipherId::Blowfish, KernelVariant::Optimized,
         MachineConfig::dataflow(), 512},
    };
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
    std::string path = ::testing::TempDir() + "BENCH_pp_" + tag + ".json";
    driver::writeBenchJson(path, "procpool", results);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    return buf.str();
}

std::vector<uint8_t>
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string s = buf.str();
    return {s.begin(), s.end()};
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

JournalErrorKind
openKind(SweepJournal &j, const std::string &path, uint64_t fp,
         uint64_t count)
{
    try {
        j.open(path, fp, count);
    } catch (const JournalError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "journal open unexpectedly succeeded";
    return JournalErrorKind::Io;
}

TEST(ProcPool, ProcessModeMatchesThreadModeByteForByte)
{
    auto cells = smallGrid();
    SweepOptions threadOpts;
    auto threadResults = driver::runCells(cells, threadOpts);
    auto processResults = driver::runCells(cells, processOptions());

    ASSERT_EQ(processResults.size(), threadResults.size());
    for (size_t i = 0; i < threadResults.size(); i++) {
        EXPECT_EQ(processResults[i].outcome, threadResults[i].outcome);
        EXPECT_EQ(processResults[i].stats.cycles,
                  threadResults[i].stats.cycles);
        EXPECT_EQ(processResults[i].stats.instructions,
                  threadResults[i].stats.instructions);
        // Healthy cells never carry worker attribution, so the JSON
        // below can be identical across isolation modes.
        EXPECT_EQ(processResults[i].worker, -1);
    }
    EXPECT_EQ(benchJsonString(threadResults, "thread"),
              benchJsonString(processResults, "process"));
}

TEST(ProcPool, ChaosCrashMarksOnlyTheFaultedCell)
{
    auto cells = smallGrid();
    ChaosGuard chaos("crash@RC4/optimized/4W");
    auto results = driver::runCells(cells, processOptions());

    ASSERT_EQ(results.size(), cells.size());
    EXPECT_EQ(results[0].outcome, CellOutcome::Crashed);
    EXPECT_FALSE(results[0].message.empty());
    EXPECT_GE(results[0].worker, 0);
    // The dead worker's remaining batch cell and the other group both
    // finish with real stats.
    for (size_t i = 1; i < results.size(); i++) {
        EXPECT_TRUE(results[i].ok()) << results[i].message;
        EXPECT_GT(results[i].stats.cycles, 0u);
        EXPECT_EQ(results[i].worker, -1);
    }
}

TEST(ProcPool, ChaosHangTripsTheWatchdog)
{
    auto cells = smallGrid();
    ChaosGuard chaos("hang@Blowfish/optimized/DF");
    auto opts = processOptions();
    opts.cellDeadlineSeconds = 1.0;
    auto results = driver::runCells(cells, opts);

    ASSERT_EQ(results.size(), cells.size());
    EXPECT_EQ(results[3].outcome, CellOutcome::TimedOut);
    EXPECT_NE(results[3].message.find("watchdog"), std::string::npos)
        << results[3].message;
    EXPECT_GE(results[3].worker, 0);
    for (size_t i = 0; i < 3; i++)
        EXPECT_TRUE(results[i].ok()) << results[i].message;
}

TEST(ProcPool, HugeDeadlineMeansNever)
{
    // Past ~9.2e9 s a deadline no longer fits the clock's nanoseconds;
    // it must saturate to "never", not wrap into an expired watchdog.
    auto cells = smallGrid();
    for (double secs : {1e10, std::numeric_limits<double>::infinity()}) {
        auto opts = processOptions();
        opts.cellDeadlineSeconds = secs;
        auto results = driver::runCells(cells, opts);
        ASSERT_EQ(results.size(), cells.size());
        for (const auto &r : results)
            EXPECT_TRUE(r.ok()) << secs << " s: " << r.message;
    }
}

TEST(ProcPool, SingleWorkerDeathRequeuesDeterministically)
{
    // One slot, fault in the middle of the first group's batch: a new
    // child must pick up the remainder and the result vector must stay
    // in cell order.
    auto cells = smallGrid();
    ChaosGuard chaos("crash@RC4/optimized/DF");
    auto opts = processOptions();
    opts.threads = 1;
    auto results = driver::runCells(cells, opts);

    ASSERT_EQ(results.size(), cells.size());
    EXPECT_TRUE(results[0].ok()) << results[0].message;
    EXPECT_EQ(results[1].outcome, CellOutcome::Crashed);
    EXPECT_TRUE(results[2].ok()) << results[2].message;
    EXPECT_TRUE(results[3].ok()) << results[3].message;
    for (size_t i = 0; i < results.size(); i++) {
        EXPECT_EQ(results[i].cipher, cells[i].cipher);
        EXPECT_EQ(results[i].model, cells[i].model.name);
    }
}

TEST(ProcPool, EveryCellCrashingStillTerminates)
{
    // One slot and every cell faults: each child retires its first
    // cell as Crashed and requeues the rest, so the sweep ends after
    // one child per cell — never hangs, never throws.
    auto cells = smallGrid();
    const std::string path = tempPath("journal_all_crash.bin");
    std::remove(path.c_str());
    auto opts = processOptions();
    opts.threads = 1;
    opts.journalPath = path;
    std::vector<SweepResult> first;
    {
        ChaosGuard chaos("crash@RC4/optimized/4W;crash@RC4/optimized/DF;"
                         "crash@Blowfish/optimized/4W;"
                         "crash@Blowfish/optimized/DF");
        first = driver::runCells(cells, opts);
    }
    ASSERT_EQ(first.size(), cells.size());
    for (const auto &r : first) {
        EXPECT_EQ(r.outcome, CellOutcome::Crashed) << r.message;
        EXPECT_EQ(r.worker, 0);
    }

    // Crashed cells are journaled: a rerun with chaos disarmed runs no
    // cell and returns the same four results.
    SweepOptions resumeOpts;
    resumeOpts.journalPath = path;
    const uint64_t before = driver::functionalRuns();
    auto second = driver::runCells(cells, resumeOpts);
    EXPECT_EQ(driver::functionalRuns() - before, 0u);
    ASSERT_EQ(second.size(), cells.size());
    for (size_t i = 0; i < cells.size(); i++) {
        EXPECT_EQ(second[i].outcome, first[i].outcome);
        EXPECT_EQ(second[i].message, first[i].message);
        EXPECT_EQ(second[i].worker, first[i].worker);
    }
    EXPECT_EQ(benchJsonString(first, "cfirst"),
              benchJsonString(second, "csecond"));
    std::remove(path.c_str());
}

TEST(ProcPool, JournalResumeSkipsFinishedCellsByteForByte)
{
    auto cells = smallGrid();
    const std::string path = tempPath("journal_resume.bin");
    std::remove(path.c_str());

    auto opts = processOptions();
    opts.journalPath = path;
    auto first = driver::runCells(cells, opts);

    // The rerun must do zero functional work: every cell comes back
    // from the journal. Resume under thread isolation, where the
    // functionalRuns counter is observable (worker processes would
    // increment their own copy).
    SweepOptions resumeOpts;
    resumeOpts.journalPath = path;
    const uint64_t before = driver::functionalRuns();
    auto second = driver::runCells(cells, resumeOpts);
    EXPECT_EQ(driver::functionalRuns() - before, 0u);
    EXPECT_EQ(benchJsonString(first, "first"),
              benchJsonString(second, "second"));
    std::remove(path.c_str());
}

TEST(ProcPool, JournalResumeWorksAcrossIsolationModes)
{
    // A journal written under thread isolation resumes a process-
    // isolated run (and vice versa): the record format is shared.
    auto cells = smallGrid();
    const std::string path = tempPath("journal_cross.bin");
    std::remove(path.c_str());

    SweepOptions threadOpts;
    threadOpts.journalPath = path;
    auto first = driver::runCells(cells, threadOpts);

    auto procOpts = processOptions();
    procOpts.journalPath = path;
    const uint64_t before = driver::functionalRuns();
    auto second = driver::runCells(cells, procOpts);
    EXPECT_EQ(driver::functionalRuns() - before, 0u);
    EXPECT_EQ(benchJsonString(first, "xfirst"),
              benchJsonString(second, "xsecond"));
    std::remove(path.c_str());
}

TEST(ProcPool, JournalRejectsCorruptionWithTypedErrors)
{
    auto cells = smallGrid();
    const std::string path = tempPath("journal_corrupt.bin");
    std::remove(path.c_str());

    auto opts = processOptions();
    opts.journalPath = path;
    driver::runCells(cells, opts);

    const auto pristine = slurpFile(path);
    const uint64_t fp = driver::gridFingerprint(cells);
    ASSERT_GT(pristine.size(), 24u);

    // Bit-flip inside the first record's payload: checksum mismatch.
    {
        auto bytes = pristine;
        bytes[40] ^= 0x01;
        writeFile(path, bytes);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp, cells.size()),
                  JournalErrorKind::BadChecksum);
    }
    // Wrong magic.
    {
        auto bytes = pristine;
        bytes[0] ^= 0xff;
        writeFile(path, bytes);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp, cells.size()),
                  JournalErrorKind::BadMagic);
    }
    // Unknown version.
    {
        auto bytes = pristine;
        bytes[4] = 0x7f;
        writeFile(path, bytes);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp, cells.size()),
                  JournalErrorKind::BadVersion);
    }
    // Header cut short.
    {
        auto bytes = pristine;
        bytes.resize(10);
        writeFile(path, bytes);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp, cells.size()),
                  JournalErrorKind::Truncated);
    }
    // A different grid: same file, different fingerprint.
    {
        writeFile(path, pristine);
        SweepJournal j;
        EXPECT_EQ(openKind(j, path, fp ^ 1, cells.size()),
                  JournalErrorKind::GridMismatch);
    }
    std::remove(path.c_str());
}

TEST(ProcPool, JournalToleratesPartialTrailingRecord)
{
    // A SIGKILL mid-append leaves a severed trailing record; open()
    // must keep every complete record and truncate the tail away.
    auto cells = smallGrid();
    const std::string path = tempPath("journal_tail.bin");
    std::remove(path.c_str());

    auto opts = processOptions();
    opts.journalPath = path;
    driver::runCells(cells, opts);

    auto bytes = slurpFile(path);
    const size_t fullRecords = 4;
    bytes.push_back(0x02); // the first bytes of a fifth record
    bytes.push_back(0x00);
    bytes.push_back(0x00);
    writeFile(path, bytes);

    SweepJournal j;
    j.open(path, driver::gridFingerprint(cells), cells.size());
    EXPECT_EQ(j.loadedRecords().size(), fullRecords);
    // And the truncation is durable: the tail is gone from the file.
    EXPECT_EQ(slurpFile(path).size(), bytes.size() - 3);
    std::remove(path.c_str());
}

TEST(ProcPool, CorruptJournalFallsBackToFreshRun)
{
    auto cells = smallGrid();
    const std::string path = tempPath("journal_fallback.bin");
    std::remove(path.c_str());

    auto opts = processOptions();
    opts.journalPath = path;
    auto first = driver::runCells(cells, opts);

    auto bytes = slurpFile(path);
    bytes[40] ^= 0x01;
    writeFile(path, bytes);

    // The sweep must not trust the flipped journal: it reruns every
    // cell, rewrites the file, and still produces identical results.
    // Thread isolation here so the in-process functionalRuns counter
    // can witness the rerun (and then the skip).
    SweepOptions threadOpts;
    threadOpts.journalPath = path;
    const uint64_t before = driver::functionalRuns();
    auto second = driver::runCells(cells, threadOpts);
    EXPECT_GT(driver::functionalRuns() - before, 0u);
    EXPECT_EQ(benchJsonString(first, "ffirst"),
              benchJsonString(second, "fsecond"));

    // The rewritten journal is valid again and resumes cleanly.
    const uint64_t before2 = driver::functionalRuns();
    driver::runCells(cells, threadOpts);
    EXPECT_EQ(driver::functionalRuns() - before2, 0u);
    std::remove(path.c_str());
}

TEST(ProcPool, DecryptCellChangesTheGridFingerprint)
{
    // An encrypt-only grid keeps the fingerprint it had before cells
    // carried a direction, so existing journals stay valid.
    auto cells = smallGrid();
    EXPECT_EQ(driver::gridFingerprint(cells), 0x9fbaf283468d6e75ull);

    auto flipped = cells;
    flipped[0].direction = kernels::KernelDirection::Decrypt;
    EXPECT_NE(driver::gridFingerprint(flipped),
              driver::gridFingerprint(cells));

    // A journal of the encrypt grid is rejected for the flipped grid,
    // so the flipped sweep starts fresh: all three kernels record.
    // Thread isolation keeps the functionalRuns counter in-process.
    const std::string path = tempPath("journal_direction.bin");
    std::remove(path.c_str());
    SweepOptions opts;
    opts.journalPath = path;
    driver::runCells(cells, opts);
    const uint64_t before = driver::functionalRuns();
    auto results = driver::runCells(flipped, opts);
    EXPECT_EQ(driver::functionalRuns() - before, 3u);
    ASSERT_TRUE(results[0].ok()) << results[0].message;
    EXPECT_EQ(results[0].direction, kernels::KernelDirection::Decrypt);

    SweepJournal j;
    EXPECT_EQ(openKind(j, path, driver::gridFingerprint(cells),
                       cells.size()),
              JournalErrorKind::GridMismatch);
    std::remove(path.c_str());
}

TEST(ProcPool, ResultPayloadRoundTrips)
{
    SweepResult r;
    r.cipher = crypto::CipherId::RC4;
    r.variant = KernelVariant::Optimized;
    r.model = "4W";
    r.bytes = 512;
    r.outcome = CellOutcome::Trapped;
    r.message = "trap: oob @ 0x42";
    r.worker = 3;
    r.stats.model = "4W";
    r.stats.instructions = 12345;
    r.stats.cycles = 6789;
    r.stats.loads = 42;
    r.stats.sboxCaches.push_back({100, 7});
    r.stats.l1 = {1000, 11};
    r.stats.classCounts[2] = 99;
    r.stats.stallCycles[1] = 55;
    r.stats.stallByClass[2][1] = 33;

    const auto payload = driver::serializeResultPayload(r);
    SweepResult out;
    driver::deserializeResultPayload(payload, out);

    EXPECT_EQ(out.outcome, CellOutcome::Trapped);
    EXPECT_EQ(out.message, r.message);
    EXPECT_EQ(out.worker, 3);
    EXPECT_EQ(out.stats.model, "4W");
    EXPECT_EQ(out.stats.instructions, 12345u);
    EXPECT_EQ(out.stats.cycles, 6789u);
    EXPECT_EQ(out.stats.loads, 42u);
    ASSERT_EQ(out.stats.sboxCaches.size(), 1u);
    EXPECT_EQ(out.stats.sboxCaches[0].misses, 7u);
    EXPECT_EQ(out.stats.l1.accesses, 1000u);
    EXPECT_EQ(out.stats.classCounts[2], 99u);
    EXPECT_EQ(out.stats.stallCycles[1], 55u);
    EXPECT_EQ(out.stats.stallByClass[2][1], 33u);

    // Truncation and trailing garbage are typed rejections.
    SweepResult scratch;
    EXPECT_THROW(driver::deserializeResultPayload(
                     {payload.data(), payload.size() - 1}, scratch),
                 JournalError);
    auto longer = payload;
    longer.push_back(0);
    EXPECT_THROW(driver::deserializeResultPayload(longer, scratch),
                 JournalError);
}

TEST(ProcPool, ChaosSpecParsing)
{
    auto points = driver::parseChaosSpec(
        "crash@RC4/optimized/4W;hang@Blowfish/optimized/DF;"
        "bogus@X/Y/Z;missing-slashes;exit@IDEA/grouped/8W+");
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].action, driver::ChaosAction::Crash);
    EXPECT_EQ(points[0].cipher, "RC4");
    EXPECT_EQ(points[0].variant, "optimized");
    EXPECT_EQ(points[0].model, "4W");
    EXPECT_EQ(points[1].action, driver::ChaosAction::Hang);
    EXPECT_EQ(points[2].action, driver::ChaosAction::Exit);
    EXPECT_EQ(points[2].model, "8W+");

    SweepCell cell{crypto::CipherId::RC4, KernelVariant::Optimized,
                   MachineConfig::fourWide(), 512};
    EXPECT_EQ(driver::chaosActionFor(points, cell),
              driver::ChaosAction::Crash);
    cell.model = MachineConfig::dataflow();
    EXPECT_EQ(driver::chaosActionFor(points, cell),
              driver::ChaosAction::None);
}

} // namespace
