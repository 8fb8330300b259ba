/**
 * @file
 * Steady-state fast-forward (sim::IterationMemo) against the full
 * per-instruction path: RecordedTrace::replay(cfg) must give the same
 * SimStats, compared as toJson, as feeding every instruction to a
 * scheduler through replay(isa::TraceSink &). Covers the paper grids
 * at 4 KB and the Optimized kernels, both directions, at 16 KB and
 * 63 KB, and pins how much of a replay the memo skips: at least half
 * on the window-limited and the booking-free DF models, DF+Mem's
 * measured share, and nothing on DF+Issue and DF+Res. Under the
 * auditor the memo skips as much, and a corrupted memo entry throws.
 * A seeded sweep of fetch/issue/window/depth/L1 shapes runs with and
 * without the auditor.
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
#include "sim/memo.hh"
#include "sim/validate.hh"
#include "util/xorshift.hh"

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
    // The booking-free unlimited-window models key their state in
    // groups: DF, DF+Alias and DF+Branch skip 98.6-99.5% at 16 KB, and
    // DF+Mem, whose L1 misses vary the outcomes, 61% (3DES decrypt) to
    // 99%. The two that book resources take the full path.
    const std::map<std::string, double> grouped = {
        {"DF", 0.5}, {"DF+Alias", 0.5}, {"DF+Branch", 0.5}, {"DF+Mem", 0.6}};
    for (const auto &cfg :
         {MachineConfig::dataflow(), MachineConfig::dfPlusAlias(),
          MachineConfig::dfPlusBranch(), MachineConfig::dfPlusIssue(),
          MachineConfig::dfPlusMem(), MachineConfig::dfPlusResources()}) {
        uint64_t skipped = 1;
        EXPECT_EQ(fastJson(trace, cfg, skipped), fullJson(trace, cfg))
            << cfg.name;
        if (grouped.count(cfg.name))
            EXPECT_GE(skipped, grouped.at(cfg.name) * trace.instructions())
                << cfg.name;
        else
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

/** Turns the auditor on for one scope. */
class AuditOn
{
  public:
    AuditOn() : prev(sim::simAuditEnabled()) { sim::setSimAudit(true); }
    ~AuditOn() { sim::setSimAudit(prev); }

  private:
    bool prev;
};

TEST(FastForward, AuditorChecksEveryHitAndSkipsAsMuch)
{
    // The auditor keeps the memo on: every hit also runs on the core
    // and is compared, so the stats stay the full path's and the memo
    // goes through the same hits as without the auditor.
    auto trace = driver::recordKernelTrace(
        CipherId::IDEA, KernelVariant::Optimized, 4 * 1024);
    for (const auto &cfg :
         {MachineConfig::fourWide(), MachineConfig::dataflow(),
          MachineConfig::dfPlusMem()}) {
        uint64_t skipped = 0;
        const std::string fast = fastJson(trace, cfg, skipped);
        EXPECT_GT(skipped, 0u) << cfg.name;
        AuditOn audit;
        uint64_t audited = 0;
        EXPECT_EQ(fastJson(trace, cfg, audited), fast) << cfg.name;
        EXPECT_EQ(audited, skipped) << cfg.name;
        EXPECT_EQ(fullJson(trace, cfg), fast) << cfg.name;
    }
}

} // namespace

namespace cryptarch::sim
{

/** Corrupts what an IterationMemo learned, as a broken memo would. */
struct IterationMemoProbe
{
    enum class Fault { None, StallDelta, GroupAdvance };

    /** Corrupt edges [@p from, end) with @p fault; returns the end. */
    static size_t
    corrupt(IterationMemo &memo, size_t from, Fault fault)
    {
        for (size_t i = from; i < memo.edges.size(); i++) {
            auto &e = memo.edges[i];
            if (fault == Fault::StallDelta) {
                if (e.stalls.empty())
                    e.stalls.emplace_back(0, 0);
                e.stalls.front().second++;
            } else if (fault == Fault::GroupAdvance) {
                e.floors.back().by++;
            }
        }
        return memo.edges.size();
    }
};

} // namespace cryptarch::sim

namespace
{

using Fault = sim::IterationMemoProbe::Fault;

/**
 * RecordedTrace::replay(cfg)'s loop over @p trace, whose iterations
 * start at pc @p head, with @p fault applied to every memo entry as
 * soon as it is learned; returns the stats as JSON.
 */
std::string
replayWithFault(const driver::RecordedTrace &trace, uint32_t head,
                const MachineConfig &cfg, Fault fault)
{
    struct Collect : isa::TraceSink
    {
        std::vector<isa::DynInst> insts;
        void emit(const isa::DynInst &inst) override { insts.push_back(inst); }
    } all;
    trace.replay(all);
    const auto &insts = all.insts;

    sim::OooScheduler sched(cfg);
    sim::IterationMemo memo(sched, head);
    size_t corrupted = 0;
    for (size_t at = 0; at < insts.size();) {
        size_t end = at;
        while (end < insts.size() && insts[end++].nextPc != head) {
        }
        sim::OutcomeVector outcomes;
        for (size_t i = at; i < end; i++)
            outcomes.push(sched.resolve(insts[i]));
        if (!memo.skip(outcomes)) {
            sim::OutcomeVector::Reader read(outcomes);
            for (size_t i = at; i < end; i++)
                sched.schedule(insts[i], read.next());
            memo.ran(outcomes, end < insts.size());
        }
        corrupted = sim::IterationMemoProbe::corrupt(memo, corrupted, fault);
        at = end;
    }
    memo.settle();
    return driver::toJson(sched.finish());
}

TEST(FastForward, AuditorThrowsOnACorruptedMemoEntry)
{
    // One model keyed in one group at the window floor, one in groups.
    const size_t bytes = 4 * 1024;
    auto trace = driver::recordKernelTrace(CipherId::IDEA,
                                           KernelVariant::Optimized, bytes);
    const auto w = driver::makeWorkload(CipherId::IDEA, bytes);
    const uint32_t head =
        kernels::buildKernel(CipherId::IDEA, KernelVariant::Optimized, w.key,
                             w.iv, bytes)
            .loopHead.value();
    AuditOn audit;
    for (const auto &cfg :
         {MachineConfig::fourWide(), MachineConfig::dataflow()}) {
        // The loop above is replay(cfg)'s: untouched, it passes.
        EXPECT_EQ(replayWithFault(trace, head, cfg, Fault::None),
                  fullJson(trace, cfg))
            << cfg.name;
        for (Fault fault : {Fault::StallDelta, Fault::GroupAdvance})
            EXPECT_THROW(replayWithFault(trace, head, cfg, fault),
                         sim::AuditError)
                << cfg.name;
    }
}

/**
 * A seeded sweep of the shapes where fast-forward's shortcuts are
 * easiest to get wrong: fetch narrower or wider than issue (the fetch
 * rule), small windows, frontend depth, and L1s of 1 to 128 sets,
 * where a next-line prefetch into a one-line L1 evicts the latest
 * block (the cache's repeat check). Every shape's stats must equal
 * the full path's; returns the instructions the memo skipped.
 */
uint64_t
sweepSeededShapes()
{
    std::vector<driver::RecordedTrace> traces;
    for (auto id : allCiphers())
        for (auto v : {KernelVariant::BaselineNoRot, KernelVariant::Optimized})
            traces.push_back(driver::recordKernelTrace(id, v, 2 * 1024));
    util::Xorshift64 rng(0xFF22);
    uint64_t skipped = 0;
    for (int i = 0; i < 32; i++) {
        MachineConfig cfg = MachineConfig::fourWide();
        static const unsigned fetch[] = {sim::unlimited, 1, 2, 3, 4, 6, 8};
        static const unsigned issue[] = {1, 2, 4, 8};
        cfg.name = "shape-" + std::to_string(i);
        cfg.fetchWidth = fetch[rng.nextBelow(std::size(fetch))];
        cfg.issueWidth = issue[rng.nextBelow(std::size(issue))];
        cfg.windowSize = 8u << rng.nextBelow(5);
        cfg.frontendDepth = static_cast<unsigned>(rng.nextBelow(6));
        cfg.fetchBlocksPerCycle = static_cast<unsigned>(rng.nextBelow(3));
        const uint32_t sets = 1u << rng.nextBelow(8);
        const uint32_t ways = 1u << rng.nextBelow(2);
        cfg.l1d = {sets * ways * 32, ways, 32};
        const auto &trace = traces[rng.nextBelow(traces.size())];
        uint64_t n = 0;
        EXPECT_NO_THROW(EXPECT_EQ(fastJson(trace, cfg, n),
                                  fullJson(trace, cfg))
                        << cfg.name);
        skipped += n;
    }
    return skipped;
}

TEST(FastForward, SeededShapesAgreeUnderTheAuditor)
{
    // Under the auditor every memo hit and every repeat hit is checked
    // on the spot.
    AuditOn audit;
    EXPECT_GT(sweepSeededShapes(), 0u);
}

TEST(FastForward, SeededShapesAgreeWhenHitsSkipTheCore)
{
    // Without the auditor a hit skips the core, so every miss after a
    // hit rebuilds the scheduler from the memo's canonical state
    // (IterationMemo::restore) on these shapes too.
    EXPECT_GT(sweepSeededShapes(), 0u);
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
