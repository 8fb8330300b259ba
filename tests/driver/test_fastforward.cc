/**
 * @file
 * Steady-state fast-forward (sim::IterationMemo) against the full
 * per-instruction path: RecordedTrace::replay(cfg) must give the same
 * SimStats, compared as toJson, as feeding every instruction to a
 * scheduler through replay(isa::TraceSink &). Covers the paper grids
 * at 4 KB and the Optimized kernels, both directions, at 16 KB and
 * 63 KB, and pins how much of a replay the memo skips: at least half
 * on the window-limited models, nothing on the unlimited-window ones
 * or under the auditor.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "driver/grids.hh"
#include "driver/json.hh"
#include "driver/trace.hh"
#include "sim/validate.hh"

namespace
{

using namespace cryptarch;
using crypto::CipherId;
using kernels::KernelDirection;
using kernels::KernelVariant;
using sim::MachineConfig;

/** The full path: every instruction through OooScheduler::emit. */
std::string
fullJson(const driver::RecordedTrace &trace, const MachineConfig &cfg)
{
    sim::OooScheduler sched(cfg);
    trace.replay(static_cast<isa::TraceSink &>(sched));
    return driver::toJson(sched.finish());
}

std::string
fastJson(const driver::RecordedTrace &trace, const MachineConfig &cfg,
         uint64_t &skipped)
{
    return driver::toJson(trace.replay(cfg, &skipped));
}

std::string
cipherName(CipherId id)
{
    std::string name = crypto::cipherInfo(id).name;
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

std::vector<CipherId>
allCiphers()
{
    std::vector<CipherId> ids;
    for (const auto &info : crypto::cipherCatalog())
        ids.push_back(info.id);
    return ids;
}

/** Every (variant, model) cell of fig04, tab02 and fig10 for @p id. */
std::map<KernelVariant, std::map<std::string, MachineConfig>>
paperCells(CipherId id)
{
    std::vector<driver::SweepCell> cells = driver::fig10Cells();
    for (const auto &spec : {driver::fig04Spec(), driver::tab02Spec()})
        for (auto c : spec.ciphers)
            for (auto v : spec.variants)
                for (const auto &m : spec.models)
                    cells.push_back({c, v, m, spec.bytes});
    std::map<KernelVariant, std::map<std::string, MachineConfig>> out;
    for (const auto &cell : cells) {
        EXPECT_EQ(cell.bytes, driver::session_bytes);
        if (cell.cipher == id)
            out[cell.variant].emplace(cell.model.name, cell.model);
    }
    return out;
}

class PaperGrids : public ::testing::TestWithParam<CipherId>
{
};

TEST_P(PaperGrids, FastForwardMatchesFullPath)
{
    const auto cells = paperCells(GetParam());
    ASSERT_FALSE(cells.empty());
    for (const auto &[variant, models] : cells) {
        auto trace = driver::recordKernelTrace(GetParam(), variant);
        for (const auto &[name, cfg] : models) {
            uint64_t skipped = 0;
            EXPECT_EQ(fastJson(trace, cfg, skipped), fullJson(trace, cfg))
                << kernels::variantName(variant) << " on " << name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    FastForward, PaperGrids, ::testing::ValuesIn(allCiphers()),
    [](const ::testing::TestParamInfo<CipherId> &info) {
        return cipherName(info.param);
    });

/** (cipher, direction, session bytes) */
using LongCase = std::tuple<CipherId, KernelDirection, size_t>;

class LongSessions : public ::testing::TestWithParam<LongCase>
{
};

TEST_P(LongSessions, FastForwardMatchesFullPath)
{
    const auto &[id, direction, bytes] = GetParam();
    auto trace = driver::recordKernelTrace(id, KernelVariant::Optimized,
                                           bytes, direction);
    // At 16 KB the memo must skip at least half of the replay on these
    // models (DESIGN §8 quotes the measured coverage).
    const std::set<std::string> floored = {"4W", "4W+", "8W+", "DF+Window"};
    for (const auto &cfg :
         {MachineConfig::fourWide(), MachineConfig::fourWidePlus(),
          MachineConfig::eightWidePlus(), MachineConfig::alpha21264(),
          MachineConfig::dfPlusWindow()}) {
        uint64_t skipped = 0;
        EXPECT_EQ(fastJson(trace, cfg, skipped), fullJson(trace, cfg))
            << cfg.name;
        EXPECT_LE(skipped, trace.instructions());
        if (bytes == 16 * 1024 && floored.count(cfg.name)) {
            EXPECT_GE(2 * skipped, trace.instructions()) << cfg.name;
        }
    }
    if (bytes != 16 * 1024)
        return;
    // The unlimited-window models always take the full path.
    for (const auto &cfg :
         {MachineConfig::dataflow(), MachineConfig::dfPlusAlias(),
          MachineConfig::dfPlusBranch(), MachineConfig::dfPlusIssue(),
          MachineConfig::dfPlusMem(), MachineConfig::dfPlusResources()}) {
        uint64_t skipped = 1;
        EXPECT_EQ(fastJson(trace, cfg, skipped), fullJson(trace, cfg))
            << cfg.name;
        EXPECT_EQ(skipped, 0u) << cfg.name;
    }
}

std::vector<LongCase>
longCases()
{
    std::vector<LongCase> cases;
    for (auto id : allCiphers())
        for (auto dir : {KernelDirection::Encrypt, KernelDirection::Decrypt})
            for (size_t bytes : {size_t{16 * 1024}, size_t{63 * 1024}})
                cases.emplace_back(id, dir, bytes);
    return cases;
}

std::string
longCaseName(const ::testing::TestParamInfo<LongCase> &info)
{
    const auto &[id, dir, bytes] = info.param;
    return cipherName(id) + "_" + kernels::directionName(dir) + "_"
        + std::to_string(bytes / 1024) + "KB";
}

INSTANTIATE_TEST_SUITE_P(FastForward, LongSessions,
                         ::testing::ValuesIn(longCases()), longCaseName);

TEST(FastForward, FetchBoundIterationsApplyOnlyAtTheirLag)
{
    // Two-wide fetch on a four-wide core: fetch sometimes sets
    // dispatch, and a state recurs with fetch further ahead than when
    // its iteration was recorded. Reusing that iteration there would
    // be wrong; the fetch rule (DESIGN §8) refuses it.
    auto trace = driver::recordKernelTrace(CipherId::IDEA,
                                           KernelVariant::BaselineNoRot);
    auto cfg = MachineConfig::fourWide();
    cfg.name = "4W-fetch2";
    cfg.fetchWidth = 2;
    uint64_t skipped = 0;
    EXPECT_EQ(fastJson(trace, cfg, skipped), fullJson(trace, cfg));
    EXPECT_GT(skipped, 0u);
}

TEST(FastForward, AuditorTakesTheFullPath)
{
    auto trace = driver::recordKernelTrace(
        CipherId::IDEA, KernelVariant::Optimized, 4 * 1024);
    const auto cfg = MachineConfig::fourWide();
    uint64_t skipped = 0;
    const std::string fast = fastJson(trace, cfg, skipped);
    EXPECT_GT(skipped, 0u);
    const bool prev = sim::simAuditEnabled();
    sim::setSimAudit(true);
    uint64_t audited = 1;
    const std::string full = fastJson(trace, cfg, audited);
    sim::setSimAudit(prev);
    EXPECT_EQ(audited, 0u);
    EXPECT_EQ(fast, full);
}

TEST(FastForward, TraceWithoutLoopHeadTakesTheFullPath)
{
    // An RC4 session shorter than one 8-byte block has no block loop.
    auto trace = driver::recordKernelTrace(CipherId::RC4,
                                           KernelVariant::Optimized, 7);
    const auto cfg = MachineConfig::fourWide();
    uint64_t skipped = 1;
    EXPECT_EQ(fastJson(trace, cfg, skipped), fullJson(trace, cfg));
    EXPECT_EQ(skipped, 0u);
}

} // namespace
