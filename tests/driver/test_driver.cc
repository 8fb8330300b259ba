/**
 * @file
 * Bench driver tests: the parallel sweep runner interprets each
 * (cipher, variant) kernel functionally exactly once per run — for
 * exactly the grids the figure benches execute — collects results in
 * deterministic order regardless of thread count, emits the
 * BENCH_*.json schema, and splits a recording's wall clock into
 * disjoint RecordTiming phases.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "driver/grids.hh"
#include "driver/json.hh"
#include "driver/sweep.hh"
#include "driver/trace.hh"

namespace
{

using namespace cryptarch;
using driver::SweepCell;
using driver::SweepResult;
using driver::SweepSpec;
using kernels::KernelVariant;
using sim::MachineConfig;

/** Distinct (cipher, variant, bytes) kernels in a cell list. */
size_t
kernelCount(const std::vector<SweepCell> &cells)
{
    std::set<std::tuple<crypto::CipherId, KernelVariant, size_t>> keys;
    for (const auto &c : cells)
        keys.insert({c.cipher, c.variant, c.bytes});
    return keys.size();
}

std::vector<SweepCell>
gridCells(const SweepSpec &spec)
{
    std::vector<SweepCell> cells;
    for (auto cipher : spec.ciphers)
        for (auto variant : spec.variants)
            for (const auto &model : spec.models)
                cells.push_back({cipher, variant, model, spec.bytes});
    return cells;
}

TEST(Driver, Fig04GridInterpretsEachKernelOnce)
{
    auto spec = driver::fig04Spec();
    uint64_t before = driver::functionalRuns();
    auto results = driver::runSweep(spec);
    uint64_t runs = driver::functionalRuns() - before;
    // One functional pass per (cipher, variant) — not per model.
    EXPECT_EQ(runs, spec.ciphers.size() * spec.variants.size());
    EXPECT_EQ(results.size(), spec.ciphers.size() * spec.variants.size()
                                  * spec.models.size());

    // The Figure 4 "21264-class" column is a real configuration, not a
    // reprint of the 4W column: the two must disagree somewhere.
    bool differs = false;
    for (auto id : spec.ciphers) {
        const auto &a21 = driver::findResult(
            results, id, KernelVariant::BaselineRot, "21264");
        const auto &w4 = driver::findResult(
            results, id, KernelVariant::BaselineRot, "4W");
        EXPECT_EQ(a21.stats.instructions, w4.stats.instructions);
        if (a21.stats.cycles != w4.stats.cycles)
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Driver, Fig10GridInterpretsEachKernelOnce)
{
    auto cells = driver::fig10Cells();
    uint64_t before = driver::functionalRuns();
    auto results = driver::runCells(cells);
    uint64_t runs = driver::functionalRuns() - before;
    EXPECT_EQ(runs, kernelCount(cells));
    EXPECT_EQ(results.size(), cells.size());
}

TEST(Driver, Tab02GridInterpretsEachKernelOnce)
{
    auto spec = driver::tab02Spec();
    uint64_t before = driver::functionalRuns();
    auto results = driver::runSweep(spec);
    uint64_t runs = driver::functionalRuns() - before;
    EXPECT_EQ(runs, spec.ciphers.size() * spec.variants.size());
    EXPECT_EQ(results.size(), spec.ciphers.size() * spec.variants.size()
                                  * spec.models.size());
}

TEST(Driver, ResultsAreOrderedAndThreadCountInvariant)
{
    SweepSpec spec;
    spec.ciphers = {crypto::CipherId::RC4, crypto::CipherId::Blowfish};
    spec.variants = {KernelVariant::BaselineRot};
    spec.models = {MachineConfig::fourWide(), MachineConfig::dataflow()};

    spec.threads = 1;
    auto serial = driver::runSweep(spec);
    spec.threads = 8;
    auto parallel = driver::runSweep(spec);

    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(parallel.size(), serial.size());

    // Grid order: cipher-major, then variant, then model.
    auto cells = gridCells(spec);
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].cipher, cells[i].cipher);
        EXPECT_EQ(serial[i].variant, cells[i].variant);
        EXPECT_EQ(serial[i].model, cells[i].model.name);
    }

    // Bit-identical stats no matter how many workers ran the sweep.
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].model, parallel[i].model);
        EXPECT_EQ(serial[i].stats.cycles, parallel[i].stats.cycles);
        EXPECT_EQ(serial[i].stats.instructions,
                  parallel[i].stats.instructions);
        EXPECT_EQ(serial[i].stats.mispredicts,
                  parallel[i].stats.mispredicts);
        EXPECT_EQ(serial[i].stats.l1.misses, parallel[i].stats.l1.misses);
    }
}

TEST(Driver, FindResultThrowsOnMissingCell)
{
    std::vector<SweepResult> results;
    EXPECT_THROW(driver::findResult(results, crypto::CipherId::RC4,
                                    KernelVariant::BaselineRot, "4W"),
                 std::out_of_range);
}

TEST(Driver, JsonEmitterWritesSchema)
{
    SweepSpec spec;
    spec.ciphers = {crypto::CipherId::RC4};
    spec.variants = {KernelVariant::BaselineRot};
    spec.models = {MachineConfig::fourWide()};
    auto results = driver::runSweep(spec);

    std::string path = ::testing::TempDir() + "BENCH_test.json";
    driver::writeBenchJson(path, "test", results);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string json = buf.str();

    EXPECT_NE(json.find("\"bench\": \"test\""), std::string::npos);
    EXPECT_NE(json.find("\"schema\": 5"), std::string::npos);
    // Schema v4: top-level outcome counts (every outcome key, zeros
    // included), worker attribution only on host-failed cells. v5
    // appended the hardening outcomes to the count object.
    EXPECT_NE(json.find("\"outcomes\": {\"ok\": 1, \"trapped\": 0, "
                        "\"verify_failed\": 0, \"error\": 0, "
                        "\"crashed\": 0, \"timed_out\": 0, "
                        "\"rejected\": 0, \"stalled\": 0}"),
              std::string::npos);
    EXPECT_EQ(json.find("\"worker\": "), std::string::npos);
    // Schema v3: fail-soft outcome on every result, message only on
    // failed cells.
    EXPECT_NE(json.find("\"outcome\": \"ok\""), std::string::npos);
    EXPECT_EQ(json.find("\"message\": "), std::string::npos);
    EXPECT_NE(json.find("\"cipher\": \"RC4\""), std::string::npos);
    EXPECT_NE(json.find("\"model\": \"4W\""), std::string::npos);
    EXPECT_NE(json.find("\"session_bytes\": 4096"), std::string::npos);
    EXPECT_NE(json.find("\"cycles\": "), std::string::npos);
    EXPECT_NE(json.find("\"mispredicts\": "), std::string::npos);
    EXPECT_NE(json.find("\"l1\": {\"accesses\": "), std::string::npos);
    // Schema v2: merged SBox-cache stats, named per-class counts from
    // the OpClass name table, and the stall-attribution counters.
    EXPECT_NE(json.find("\"sbox_cache_accesses\": "), std::string::npos);
    EXPECT_NE(json.find("\"sbox_cache_misses\": "), std::string::npos);
    EXPECT_NE(json.find("\"class_counts\": {\"Nop\": "), std::string::npos);
    EXPECT_NE(json.find("\"SboxSync\": "), std::string::npos);
    EXPECT_NE(json.find("\"stall_cycles\": {\"operand\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"stall_by_class\": {"), std::string::npos);
    EXPECT_NE(json.find("\"alias\": "), std::string::npos);

    // The emitted cycles match the sweep's stats.
    std::ostringstream expect;
    expect << "\"cycles\": " << results[0].stats.cycles;
    EXPECT_NE(json.find(expect.str()), std::string::npos);
}

TEST(Driver, JsonEscapesControlAndHighBitBytes)
{
    // Golden escape coverage, including bytes >= 0x80: a signed char
    // promoted through the %x varargs conversion used to sign-extend
    // 0x80 into "￿ff80". Every non-printable byte must come out
    // as exactly one \u00xx escape.
    const std::string nasty = std::string("A\t\"\\") + '\x1f' + '\x7f'
        + '\x80' + '\xff' + 'Z';
    std::string path = ::testing::TempDir() + "BENCH_escape.json";
    driver::writeBenchJson(path, nasty, {});

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string json = buf.str();

    EXPECT_NE(json.find("\"bench\": "
                        "\"A\\t\\\"\\\\\\u001f\\u007f\\u0080\\u00ffZ\""),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("ffff"), std::string::npos)
        << "sign-extended escape leaked: " << json;
}

TEST(Driver, FailSoftSweepKeepsHealthyCells)
{
    // Three cells: the middle one cannot even build (Rijndael session
    // not a block multiple), the last one traps at install time (the
    // session image exceeds machine memory). Neither may take down the
    // healthy first cell, and runCells must not throw.
    std::vector<SweepCell> cells = {
        {crypto::CipherId::RC4, KernelVariant::BaselineRot,
         MachineConfig::fourWide(), 1024},
        {crypto::CipherId::Rijndael, KernelVariant::BaselineRot,
         MachineConfig::fourWide(), 100},
        {crypto::CipherId::RC4, KernelVariant::BaselineRot,
         MachineConfig::fourWide(), size_t{1} << 23},
    };
    auto results = driver::runCells(cells);
    ASSERT_EQ(results.size(), 3u);

    EXPECT_TRUE(results[0].ok());
    EXPECT_EQ(results[0].outcome, driver::CellOutcome::Ok);
    EXPECT_GT(results[0].stats.cycles, 0u);
    EXPECT_TRUE(results[0].message.empty());

    EXPECT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].outcome, driver::CellOutcome::Error);
    EXPECT_FALSE(results[1].message.empty());
    // Failed cells keep their grid coordinates (zeroed stats).
    EXPECT_EQ(results[1].cipher, crypto::CipherId::Rijndael);
    EXPECT_EQ(results[1].bytes, 100u);
    EXPECT_EQ(results[1].stats.cycles, 0u);

    EXPECT_FALSE(results[2].ok());
    EXPECT_EQ(results[2].outcome, driver::CellOutcome::Trapped);
    EXPECT_NE(results[2].message.find("oob"), std::string::npos)
        << results[2].message;
}

TEST(Driver, FailedCellsSerializeOutcomeAndMessage)
{
    std::vector<SweepCell> cells = {
        {crypto::CipherId::Rijndael, KernelVariant::BaselineRot,
         MachineConfig::fourWide(), 100},
    };
    auto results = driver::runCells(cells);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_FALSE(results[0].ok());

    std::string path = ::testing::TempDir() + "BENCH_failsoft.json";
    driver::writeBenchJson(path, "failsoft", results);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string json = buf.str();
    EXPECT_NE(json.find("\"outcome\": \"error\""), std::string::npos);
    EXPECT_NE(json.find("\"message\": \""), std::string::npos);
}

TEST(Driver, MixedSessionLengthsKeySeparateTraces)
{
    // Cells that differ only in session length must NOT share a trace:
    // two kernels, two functional passes, different dynamic lengths.
    std::vector<SweepCell> cells = {
        {crypto::CipherId::RC4, KernelVariant::BaselineRot,
         MachineConfig::fourWide(), 1024},
        {crypto::CipherId::RC4, KernelVariant::BaselineRot,
         MachineConfig::fourWide(), 2048},
    };
    uint64_t before = driver::functionalRuns();
    auto results = driver::runCells(cells);
    EXPECT_EQ(driver::functionalRuns() - before, 2u);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_LT(results[0].stats.instructions, results[1].stats.instructions);
    EXPECT_EQ(results[0].bytes, 1024u);
    EXPECT_EQ(results[1].bytes, 2048u);
}

/**
 * RecordTiming's fields are disjoint phases of one recordKernelTrace
 * call, so together they never exceed its wall clock: recordSeconds
 * is the interpreter run only, never the workload synthesis, build or
 * oracle around it.
 */
TEST(Driver, TimingPhasesAreDisjointSplitsOfWallClock)
{
    driver::RecordTiming t;
    const auto t0 = std::chrono::steady_clock::now();
    driver::recordKernelTrace(crypto::CipherId::Blowfish,
                              KernelVariant::Optimized, 512,
                              kernels::KernelDirection::Encrypt, &t);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    EXPECT_GT(t.setupSeconds, 0.0);
    EXPECT_GT(t.recordSeconds, 0.0);
    EXPECT_GT(t.verifySeconds, 0.0);
    EXPECT_EQ(t.decodeSeconds, 0.0);
    EXPECT_EQ(t.gateSeconds, 0.0);
    EXPECT_EQ(t.compressSeconds, 0.0);
    EXPECT_LE(t.setupSeconds + t.recordSeconds + t.decodeSeconds
                  + t.gateSeconds + t.verifySeconds + t.compressSeconds,
              wall);
}

} // namespace
