/**
 * @file
 * The outcome walk of RecordedTrace::replay(cfg), which resolves only
 * the instructions whose outcome step is not inert
 * (OooScheduler::outcomeInert) and counts the rest a run at a time,
 * against resolving every instruction in turn: the inert predicate
 * itself on every class and preset, every segment's OutcomeVector and
 * end cursor on the catalog kernels, and a stream that ends inside a
 * run.
 */

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <string>
#include <vector>

#include "driver/json.hh"
#include "driver/trace.hh"
#include "sim/memo.hh"

namespace cryptarch::driver
{

/** Drives RecordedTrace's private walks. */
struct RecordedTraceProbe
{
    /** Where one segment of a walk ended, and its outcomes. */
    struct Segment
    {
        sim::OutcomeVector outcomes;
        uint64_t seq = 0;
        uint32_t pc = 0;
        size_t taken = 0;
        size_t addr = 0;
    };

    /** @p trace's segments through the outcome walk on @p sched, from
     *  pc 0 to the end, split at the loop head as replay(cfg) is. */
    static std::vector<Segment>
    outcomeWalk(const RecordedTrace &trace, sim::OooScheduler &sched)
    {
        RecordedTrace::RunTable table(trace.program_.size());
        RecordedTrace::Cursor at;
        std::vector<Segment> segments;
        while (at.seq < trace.count_) {
            Segment s;
            at = trace.resolveRuns(at, sched, s.outcomes, table);
            s.seq = at.seq;
            s.pc = at.pc;
            s.taken = at.taken;
            s.addr = at.addr;
            segments.push_back(std::move(s));
        }
        return segments;
    }

    static uint32_t loopHead(const RecordedTrace &trace)
    {
        return trace.loopHead_;
    }
};

} // namespace cryptarch::driver

namespace
{

using namespace cryptarch;
using crypto::CipherId;
using driver::RecordedTraceProbe;
using kernels::KernelDirection;
using kernels::KernelVariant;
using sim::MachineConfig;

/** The trace's full stream, through replay(isa::TraceSink &). */
std::vector<isa::DynInst>
stream(const driver::RecordedTrace &trace)
{
    struct Collect : isa::TraceSink
    {
        std::vector<isa::DynInst> insts;
        void emit(const isa::DynInst &inst) override { insts.push_back(inst); }
    } all;
    trace.replay(all);
    return all.insts;
}

/** The segments of resolving each instruction of @p insts in turn on
 *  @p sched, split after each instruction whose nextPc is @p head. */
std::vector<RecordedTraceProbe::Segment>
resolveEach(const std::vector<isa::DynInst> &insts, uint32_t head,
            sim::OooScheduler &sched)
{
    std::vector<RecordedTraceProbe::Segment> segments;
    RecordedTraceProbe::Segment s;
    for (const auto &inst : insts) {
        s.outcomes.push(sched.resolve(inst));
        s.seq++;
        s.pc = inst.nextPc;
        if (inst.branch && inst.op != isa::Opcode::Br)
            s.taken++;
        if (inst.isLoad || inst.isStore)
            s.addr++;
        if (inst.nextPc == head || &inst == &insts.back()) {
            segments.push_back(s);
            s.outcomes.clear();
        }
    }
    return segments;
}

/** Both walks over @p trace on @p cfg agree segment by segment and in
 *  the counters finish() derives. */
void
expectWalksAgree(const driver::RecordedTrace &trace,
                 const MachineConfig &cfg, const std::string &what)
{
    sim::OooScheduler each(cfg);
    sim::OooScheduler runs(cfg);
    const auto want = resolveEach(
        stream(trace), RecordedTraceProbe::loopHead(trace), each);
    const auto got = RecordedTraceProbe::outcomeWalk(trace, runs);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); i++) {
        ASSERT_EQ(got[i].outcomes.size(), want[i].outcomes.size())
            << what << " segment " << i;
        ASSERT_TRUE(got[i].outcomes == want[i].outcomes)
            << what << " segment " << i;
        ASSERT_EQ(got[i].seq, want[i].seq) << what << " segment " << i;
        ASSERT_EQ(got[i].pc, want[i].pc) << what << " segment " << i;
        ASSERT_EQ(got[i].taken, want[i].taken) << what << " segment " << i;
        ASSERT_EQ(got[i].addr, want[i].addr) << what << " segment " << i;
    }
    EXPECT_EQ(driver::toJson(runs.finish()), driver::toJson(each.finish()))
        << what;
}

std::vector<MachineConfig>
presets()
{
    return {MachineConfig::fourWide(),      MachineConfig::alpha21264(),
            MachineConfig::fourWidePlus(),  MachineConfig::eightWidePlus(),
            MachineConfig::dataflow(),      MachineConfig::dfPlusAlias(),
            MachineConfig::dfPlusBranch(),  MachineConfig::dfPlusIssue(),
            MachineConfig::dfPlusMem(),     MachineConfig::dfPlusResources(),
            MachineConfig::dfPlusWindow()};
}

/** Each opcode, plain and aliased, decoded (Sboxx is the last
 *  opcode); this covers every OpClass. */
std::vector<isa::DynInst>
everyOpcode()
{
    std::vector<isa::DynInst> out;
    for (unsigned op = 0; op <= static_cast<unsigned>(isa::Opcode::Sboxx);
         op++) {
        isa::Inst inst;
        inst.op = static_cast<isa::Opcode>(op);
        for (bool aliased : {false, true}) {
            inst.aliased = aliased;
            inst.tableId = 1;
            isa::DynInst d = isa::decode(inst, 5).tmpl;
            d.addr = 0x10000 + 0x48;
            out.push_back(d);
        }
    }
    return out;
}

/** A few non-inert outcome steps that read what an SBOXSYNC, a cache
 *  fill or a predictor update would change. */
std::vector<isa::DynInst>
probes()
{
    std::vector<isa::DynInst> out;
    for (auto op : {isa::Opcode::Ldl, isa::Opcode::Stl, isa::Opcode::Sbox,
                    isa::Opcode::Beq}) {
        isa::Inst inst;
        inst.op = op;
        inst.tableId = 1;
        isa::DynInst d = isa::decode(inst, 5).tmpl;
        d.addr = 0x10000 + 0x48;
        d.taken = op == isa::Opcode::Beq;
        out.push_back(d);
    }
    return out;
}

TEST(OutcomeWalk, InertInstructionsOnlyCountTheirClass)
{
    // For every class and preset: where outcomeInert holds, resolve()
    // gives a zero Outcome and moves no state but classCounts, which
    // countInert moves the same way. Later outcome steps that read the
    // caches, SBox sectors and predictor must not tell the two apart.
    const auto insts = everyOpcode();
    std::vector<bool> classSeen(isa::num_op_classes);
    for (const auto &inst : insts)
        classSeen[static_cast<size_t>(inst.cls)] = true;
    for (size_t c = 0; c < classSeen.size(); c++)
        EXPECT_TRUE(classSeen[c]) << isa::opClassName(isa::OpClass(c));

    size_t inert = 0;
    for (const auto &cfg : presets()) {
        for (const auto &inst : insts) {
            sim::OooScheduler resolved(cfg);
            sim::OooScheduler counted(cfg);
            if (!resolved.outcomeInert(inst))
                continue;
            inert++;
            const std::string what = std::string(isa::opClassName(inst.cls))
                + " (opcode " + std::to_string(static_cast<int>(inst.op))
                + ") on " + cfg.name;
            for (const auto &p : probes())
                EXPECT_EQ(resolved.resolve(p), counted.resolve(p)) << what;
            EXPECT_EQ(resolved.resolve(inst), sim::Outcome{}) << what;
            std::array<uint64_t, isa::num_op_classes> one{};
            one[static_cast<size_t>(inst.cls)] = 1;
            counted.countInert(one);
            for (const auto &p : probes())
                EXPECT_EQ(resolved.resolve(p), counted.resolve(p)) << what;
            EXPECT_EQ(driver::toJson(resolved.finish()),
                      driver::toJson(counted.finish()))
                << what;
        }
    }
    EXPECT_GT(inert, 0u);
}

TEST(OutcomeWalk, InertnessFollowsTheMachine)
{
    // A branch is never inert; memory operations are on a perfect
    // memory; SBOX reads are also on perfect SBox caches; SBOXSYNC is
    // wherever there are no SBox caches.
    auto inertOn = [](const MachineConfig &cfg, isa::Opcode op) {
        isa::Inst inst;
        inst.op = op;
        return sim::OooScheduler(cfg).outcomeInert(isa::decode(inst, 0).tmpl);
    };
    using isa::Opcode;
    for (const auto &cfg : presets()) {
        EXPECT_FALSE(inertOn(cfg, Opcode::Beq)) << cfg.name;
        EXPECT_FALSE(inertOn(cfg, Opcode::Br)) << cfg.name;
        EXPECT_TRUE(inertOn(cfg, Opcode::Addl)) << cfg.name;
        EXPECT_TRUE(inertOn(cfg, Opcode::Halt)) << cfg.name;
        EXPECT_EQ(inertOn(cfg, Opcode::Ldl), cfg.perfectMemory) << cfg.name;
        EXPECT_EQ(inertOn(cfg, Opcode::Stl), cfg.perfectMemory) << cfg.name;
    }
    EXPECT_TRUE(inertOn(MachineConfig::dataflow(), Opcode::Sbox));
    EXPECT_TRUE(inertOn(MachineConfig::dataflow(), Opcode::Sboxsync));
    EXPECT_FALSE(inertOn(MachineConfig::fourWide(), Opcode::Sbox));
    EXPECT_FALSE(inertOn(MachineConfig::fourWidePlus(), Opcode::Sbox));
    EXPECT_FALSE(inertOn(MachineConfig::fourWidePlus(), Opcode::Sboxsync));
    EXPECT_TRUE(inertOn(MachineConfig::fourWide(), Opcode::Sboxsync));
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

class Kernels : public ::testing::TestWithParam<CipherId>
{
};

TEST_P(Kernels, OutcomeWalkMatchesResolvingEachInstruction)
{
    for (auto variant :
         {KernelVariant::BaselineNoRot, KernelVariant::BaselineRot,
          KernelVariant::Optimized, KernelVariant::OptimizedGrp,
          KernelVariant::OptimizedFused}) {
        for (auto dir : {KernelDirection::Encrypt, KernelDirection::Decrypt}) {
            const auto trace =
                driver::recordKernelTrace(GetParam(), variant, 2048, dir);
            for (const auto &cfg :
                 {MachineConfig::fourWide(), MachineConfig::fourWidePlus(),
                  MachineConfig::eightWidePlus(), MachineConfig::alpha21264(),
                  MachineConfig::dataflow(), MachineConfig::dfPlusBranch(),
                  MachineConfig::dfPlusMem(),
                  MachineConfig::dfPlusResources()})
                expectWalksAgree(trace, cfg,
                                 kernels::variantName(variant) + " "
                                     + kernels::directionName(dir) + " on "
                                     + cfg.name);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    OutcomeWalk, Kernels, ::testing::ValuesIn(allCiphers()),
    [](const ::testing::TestParamInfo<CipherId> &info) {
        return cipherName(info.param);
    });

TEST(OutcomeWalk, StreamThatEndsInsideARun)
{
    // A 3DES stream cut three quarters of the way in, inside a run of
    // its loop body: the outcome walk finishes that run one
    // instruction at a time, and the fast path equals the full path.
    const size_t bytes = 1024;
    const auto w = driver::makeWorkload(CipherId::TripleDES, bytes);
    const auto build = kernels::buildKernel(
        CipherId::TripleDES, KernelVariant::Optimized, w.key, w.iv, bytes);
    const auto full = driver::recordKernelTrace(CipherId::TripleDES,
                                                KernelVariant::Optimized,
                                                bytes);
    const auto insts = stream(full);
    const uint32_t head = build.loopHead.value();
    size_t cut = insts.size() * 3 / 4;
    // Inside a run: the last instruction kept is no run's end.
    while (insts[cut - 1].branch || insts[cut - 1].op == isa::Opcode::Halt
           || insts[cut - 1].nextPc == head)
        cut++;
    driver::RecordedTrace trace(build.program, head);
    for (size_t i = 0; i < cut; i++)
        trace.emit(insts[i]);
    ASSERT_EQ(trace.instructions(), cut);

    for (const auto &cfg :
         {MachineConfig::dataflow(), MachineConfig::dfPlusMem(),
          MachineConfig::fourWide(), MachineConfig::fourWidePlus()}) {
        expectWalksAgree(trace, cfg, cfg.name);
        sim::OooScheduler sched(cfg);
        trace.replay(static_cast<isa::TraceSink &>(sched));
        uint64_t skipped = 0;
        EXPECT_EQ(driver::toJson(trace.replay(cfg, &skipped)),
                  driver::toJson(sched.finish()))
            << cfg.name;
        EXPECT_GT(skipped, 0u) << cfg.name;
    }
}

} // namespace
