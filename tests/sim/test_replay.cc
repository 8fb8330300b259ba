/**
 * @file
 * Golden determinism of trace record/replay: replaying a RecordedTrace
 * into an OooScheduler must yield bit-identical SimStats to attaching
 * the scheduler live to Machine::run. This is the property the whole
 * bench driver rests on — a recorded trace IS the functional
 * execution, so a model sweep may replay it any number of times.
 * Also bounds the resource rings of the unlimited-window models and
 * checks that a failed unit probe books no issue slot.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "driver/trace.hh"
#include "driver/workload.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"

namespace cryptarch::sim
{

/** Reads OooScheduler's private resource pools. */
struct OooSchedulerProbe
{
    /** The dense ring size of each limited resource of @p sched. */
    static std::vector<size_t>
    windowCells(OooScheduler &sched)
    {
        std::vector<size_t> cells;
        sched.forEachResource(
            [&](CycleResource &r) { cells.push_back(r.windowCells()); });
        return cells;
    }

    /** Issue slots booked at @p cycle in @p sched. */
    static unsigned
    issueSlotsAt(const OooScheduler &sched, Cycle cycle)
    {
        return sched.issueSlots.bookedAt(cycle);
    }
};

} // namespace cryptarch::sim

namespace
{

using namespace cryptarch;
using kernels::KernelVariant;
using sim::MachineConfig;
using sim::SimStats;

SimStats
liveStats(crypto::CipherId id, KernelVariant variant,
          const MachineConfig &cfg)
{
    driver::Workload w = driver::makeWorkload(id);
    auto build = kernels::buildKernel(id, variant, w.key, w.iv,
                                      driver::session_bytes);
    isa::Machine m;
    build.install(m, kernels::toWordImage(id, w.plaintext));
    sim::OooScheduler sched(cfg);
    m.run(build.program, &sched, 1ull << 32);
    return sched.finish();
}

void
expectStatsEqual(const SimStats &live, const SimStats &replayed)
{
    EXPECT_EQ(live.instructions, replayed.instructions);
    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.condBranches, replayed.condBranches);
    EXPECT_EQ(live.mispredicts, replayed.mispredicts);
    EXPECT_EQ(live.loads, replayed.loads);
    EXPECT_EQ(live.stores, replayed.stores);
    EXPECT_EQ(live.sboxAccesses, replayed.sboxAccesses);
    EXPECT_EQ(live.sboxCacheHits, replayed.sboxCacheHits);
    EXPECT_EQ(live.sboxCacheAccesses, replayed.sboxCacheAccesses);
    EXPECT_EQ(live.sboxCacheMisses, replayed.sboxCacheMisses);
    ASSERT_EQ(live.sboxCaches.size(), replayed.sboxCaches.size());
    for (size_t i = 0; i < live.sboxCaches.size(); i++) {
        EXPECT_EQ(live.sboxCaches[i].accesses,
                  replayed.sboxCaches[i].accesses);
        EXPECT_EQ(live.sboxCaches[i].misses, replayed.sboxCaches[i].misses);
    }
    EXPECT_EQ(live.l1.accesses, replayed.l1.accesses);
    EXPECT_EQ(live.l1.misses, replayed.l1.misses);
    EXPECT_EQ(live.l2.accesses, replayed.l2.accesses);
    EXPECT_EQ(live.l2.misses, replayed.l2.misses);
    EXPECT_EQ(live.tlb.accesses, replayed.tlb.accesses);
    EXPECT_EQ(live.tlb.misses, replayed.tlb.misses);
    for (size_t i = 0; i < live.classCounts.size(); i++)
        EXPECT_EQ(live.classCounts[i], replayed.classCounts[i])
            << "class " << i;
    for (size_t c = 0; c < sim::num_stall_causes; c++)
        EXPECT_EQ(live.stallCycles[c], replayed.stallCycles[c])
            << "cause " << sim::stall_cause_names[c];
    for (size_t i = 0; i < live.stallByClass.size(); i++)
        for (size_t c = 0; c < sim::num_stall_causes; c++)
            EXPECT_EQ(live.stallByClass[i][c], replayed.stallByClass[i][c])
                << "class " << i << " cause " << sim::stall_cause_names[c];
}

struct ReplayCase
{
    crypto::CipherId cipher;
    KernelVariant variant;
    MachineConfig model;
};

class ReplayDeterminism : public ::testing::TestWithParam<ReplayCase>
{
};

TEST_P(ReplayDeterminism, ReplayMatchesLiveSimulation)
{
    const auto &[id, variant, cfg] = GetParam();
    auto live = liveStats(id, variant, cfg);
    auto trace = driver::recordKernelTrace(id, variant);
    auto replayed = trace.replay(cfg);
    EXPECT_EQ(trace.instructions(), live.instructions);
    expectStatsEqual(live, replayed);
}

/** "<cipher>_<variant>[_<model>]" as a gtest name. */
std::string
kernelName(crypto::CipherId id, KernelVariant variant,
           const std::string &model = "")
{
    std::string name = crypto::cipherInfo(id).name + "_"
        + kernels::variantName(variant) + (model.empty() ? "" : "_" + model);
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

std::string
caseName(const ::testing::TestParamInfo<ReplayCase> &info)
{
    return kernelName(info.param.cipher, info.param.variant,
                      info.param.model.name);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ReplayDeterminism,
    ::testing::Values(
        ReplayCase{crypto::CipherId::RC4, KernelVariant::BaselineRot,
                   MachineConfig::fourWide()},
        ReplayCase{crypto::CipherId::RC4, KernelVariant::BaselineRot,
                   MachineConfig::dataflow()},
        ReplayCase{crypto::CipherId::Rijndael, KernelVariant::BaselineRot,
                   MachineConfig::fourWide()},
        ReplayCase{crypto::CipherId::Rijndael, KernelVariant::BaselineRot,
                   MachineConfig::dataflow()},
        // The SBox-cache path (4W+) and the 21264-class preset are
        // exercised on the optimized kernels too.
        ReplayCase{crypto::CipherId::Rijndael, KernelVariant::Optimized,
                   MachineConfig::fourWidePlus()},
        ReplayCase{crypto::CipherId::RC4, KernelVariant::Optimized,
                   MachineConfig::alpha21264()}),
    caseName);

TEST(Replay, ReplayingTwiceIsIdentical)
{
    auto trace = driver::recordKernelTrace(crypto::CipherId::RC4,
                                           KernelVariant::BaselineRot);
    auto a = trace.replay(MachineConfig::fourWide());
    auto b = trace.replay(MachineConfig::fourWide());
    expectStatsEqual(a, b);
}

TEST(Replay, StreamPreservesSequenceNumbers)
{
    auto trace = driver::recordKernelTrace(crypto::CipherId::Rijndael,
                                           KernelVariant::Optimized);
    ASSERT_FALSE(trace.empty());
    struct SeqSink : isa::TraceSink
    {
        uint64_t next = 0;
        void
        emit(const isa::DynInst &inst) override
        {
            ASSERT_EQ(inst.seq, next);
            next++;
        }
    } sink;
    trace.replay(sink);
    EXPECT_EQ(sink.next, trace.instructions());
}

// The recorded trace drops result values (timing models never read
// them) but must preserve every field the scheduler does read —
// asserted here by the full schema-3 stall-counter comparison in
// ReplayMatchesLiveSimulation above, and spot-checked structurally:
// replaying through the generic TraceSink path equals the hot path.
TEST(Replay, PackedSinkReplayMatchesHotPath)
{
    auto trace = driver::recordKernelTrace(crypto::CipherId::RC4,
                                           KernelVariant::Optimized);
    auto cfg = MachineConfig::fourWidePlus();
    sim::OooScheduler sched(cfg);
    trace.replay(static_cast<isa::TraceSink &>(sched));
    auto viaSink = sched.finish();
    auto viaHot = trace.replay(cfg);
    expectStatsEqual(viaSink, viaHot);
}

/**
 * Event counts taken straight from the live DynInst stream, by its
 * flags rather than its OpClass: SimStats derives its totals from the
 * class counts, the predictor and the caches, and these counts check
 * that derivation. The sink also records the stream, so both replay
 * paths see exactly what was counted.
 */
struct CountingSink : isa::TraceSink
{
    explicit CountingSink(const kernels::KernelBuild &build)
        : trace(build.program, build.loopHead)
    {
    }

    void
    emit(const isa::DynInst &inst) override
    {
        instructions++;
        loads += inst.isLoad;
        stores += inst.isStore;
        condBranches += inst.branch && inst.op != isa::Opcode::Br;
        sboxReads += (inst.op == isa::Opcode::Sbox
                      || inst.op == isa::Opcode::Sboxx)
            && !inst.aliased;
        trace.emit(inst);
    }

    driver::RecordedTrace trace;
    uint64_t instructions = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t condBranches = 0;
    uint64_t sboxReads = 0;
};

void
expectStreamCounts(const CountingSink &live, const SimStats &s)
{
    EXPECT_EQ(s.instructions, live.instructions);
    EXPECT_EQ(s.loads, live.loads);
    EXPECT_EQ(s.stores, live.stores);
    EXPECT_EQ(s.condBranches, live.condBranches);
    EXPECT_EQ(s.sboxAccesses, live.sboxReads);
    EXPECT_EQ(s.sboxCacheHits + s.sboxCacheMisses, s.sboxCacheAccesses);
    uint64_t byClass = 0;
    for (const auto &row : s.stallByClass)
        for (uint64_t v : row)
            byClass += v;
    EXPECT_EQ(s.totalStallCycles(), byClass);
}

using StreamCase = std::tuple<crypto::CipherId, KernelVariant>;

class StreamCounts : public ::testing::TestWithParam<StreamCase>
{
};

TEST_P(StreamCounts, ReplayTotalsMatchTheLiveStream)
{
    const auto &[id, variant] = GetParam();
    driver::Workload w = driver::makeWorkload(id);
    auto build = kernels::buildKernel(id, variant, w.key, w.iv,
                                      driver::session_bytes);
    isa::Machine m;
    build.install(m, kernels::toWordImage(id, w.plaintext));
    CountingSink live(build);
    m.run(build.program, &live);
    ASSERT_EQ(live.trace.instructions(), live.instructions);

    // 4W+: SBox caches and a real predictor, so every derived total
    // is live.
    const MachineConfig cfg = MachineConfig::fourWidePlus();
    {
        SCOPED_TRACE("fast-forward path");
        uint64_t skipped = 0;
        expectStreamCounts(live, live.trace.replay(cfg, &skipped));
        EXPECT_GT(skipped, 0u);
    }
    SCOPED_TRACE("full path");
    sim::OooScheduler sched(cfg);
    live.trace.replay(static_cast<isa::TraceSink &>(sched));
    const SimStats full = sched.finish();
    expectStreamCounts(live, full);
    // finish() assigns its totals, so calling it again changes nothing.
    expectStatsEqual(full, sched.finish());
}

std::vector<StreamCase>
streamCases()
{
    std::vector<StreamCase> cases;
    for (const auto &info : crypto::cipherCatalog())
        for (auto v : {KernelVariant::BaselineNoRot,
                       KernelVariant::BaselineRot, KernelVariant::Optimized,
                       KernelVariant::OptimizedGrp,
                       KernelVariant::OptimizedFused})
            cases.emplace_back(info.id, v);
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, StreamCounts, ::testing::ValuesIn(streamCases()),
    [](const ::testing::TestParamInfo<StreamCase> &info) {
        return kernelName(std::get<0>(info.param), std::get<1>(info.param));
    });

/**
 * On the unlimited-window models with finite units (DF+Res) or issue
 * width (DF+Issue) the scheduler probes far below its prune horizon.
 * Those phantom cells must not stretch any resource's dense ring over
 * the session: after a 3DES replay, the longest-running kernel, every
 * limited pool's window stays within 64K cells.
 */
TEST(ReplayFootprint, UnlimitedWindowRingsStaySmall)
{
    auto trace = driver::recordKernelTrace(crypto::CipherId::TripleDES,
                                           KernelVariant::Optimized,
                                           16 * 1024);
    for (const auto &cfg : {MachineConfig::dfPlusResources(),
                            MachineConfig::dfPlusIssue()}) {
        sim::OooScheduler sched(cfg);
        trace.replay(static_cast<isa::TraceSink &>(sched));
        const auto cells = sim::OooSchedulerProbe::windowCells(sched);
        ASSERT_FALSE(cells.empty()) << cfg.name;
        for (size_t n : cells)
            EXPECT_LE(n, 64u * 1024) << cfg.name;
    }
}

/**
 * The joint issue probe books an issue slot only once the unit fits: a
 * cycle whose slot is free but whose rotator or multiplier is taken
 * keeps its slot. Two issue slots, one rotator and two multiplier
 * half-slots (a 64-bit multiply takes both) make a burst of independent
 * ROT and MUL ops fail many unit probes; in every cycle the booked
 * issue slots must equal the instructions the timeline shows issuing.
 */
TEST(IssueProbe, FailedUnitProbeBooksNoSlot)
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.issueWidth = 2;
    cfg.numRotUnits = 1;
    cfg.mulHalfSlots = 2;
    sim::OooScheduler sched(cfg);
    constexpr uint32_t n = 96;
    sched.recordTimeline(0, n);
    for (uint32_t i = 0; i < n; i++) {
        isa::DynInst inst;
        inst.seq = i;
        inst.pc = i;
        inst.nextPc = i + 1;
        inst.dest = static_cast<uint8_t>(1 + i % 16);
        // Rotates in runs of three, then a 64-bit and a 32-bit multiply.
        switch (i % 5) {
          case 3:
            inst.op = isa::Opcode::Mulq;
            inst.cls = isa::OpClass::IntMult;
            break;
          case 4:
            inst.op = isa::Opcode::Mull;
            inst.cls = isa::OpClass::IntMult32;
            break;
          default:
            inst.op = isa::Opcode::Rol;
            inst.cls = isa::OpClass::RotUnit;
        }
        sched.emit(inst);
    }
    const auto &timeline = sched.timelineEntries();
    ASSERT_EQ(timeline.size(), n);
    std::vector<unsigned> issued;
    uint64_t unitWait = 0;
    for (const auto &e : timeline) {
        if (e.issue >= issued.size())
            issued.resize(e.issue + 1);
        issued[e.issue]++;
        unitWait += e.stall[static_cast<size_t>(sim::StallCause::FuRot)]
            + e.stall[static_cast<size_t>(sim::StallCause::FuMul)];
    }
    // The burst really failed unit probes at cycles with a free slot.
    EXPECT_GT(unitWait, n);
    for (sim::Cycle c = 0; c < issued.size() + 8; c++)
        EXPECT_EQ(sim::OooSchedulerProbe::issueSlotsAt(sched, c),
                  c < issued.size() ? issued[c] : 0u)
            << "cycle " << c;
}

} // namespace
