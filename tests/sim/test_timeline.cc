/** @file Tests for the pipeline timeline recorder and op-mix counter. */

#include <gtest/gtest.h>

#include "kernels/kernel.hh"
#include "sim/pipeline.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using util::Xorshift64;

constexpr isa::Reg r1{1};

TEST(Timeline, RecordsRequestedWindowInOrder)
{
    isa::Assembler a;
    for (int i = 0; i < 100; i++)
        a.addq(r1, 1, r1);
    a.halt();
    auto p = a.finalize();

    sim::OooScheduler sched(sim::MachineConfig::fourWide());
    sched.recordTimeline(10, 20);
    isa::Machine m;
    m.run(p, &sched);
    sched.finish();

    const auto &tl = sched.timelineEntries();
    ASSERT_EQ(tl.size(), 20u);
    for (size_t i = 0; i < tl.size(); i++) {
        const auto &e = tl[i];
        EXPECT_EQ(e.seq, 10 + i);
        // Pipeline-stage monotonicity per instruction.
        EXPECT_LE(e.fetch, e.dispatch);
        EXPECT_LE(e.dispatch, e.ready);
        EXPECT_LE(e.ready, e.issue);
        EXPECT_LT(e.issue, e.complete);
        EXPECT_LE(e.complete, e.retire);
    }
    // The serial add chain issues one per cycle.
    for (size_t i = 1; i < tl.size(); i++)
        EXPECT_EQ(tl[i].issue, tl[i - 1].issue + 1);
}

TEST(Timeline, EmptyWhenNotRequested)
{
    isa::Assembler a;
    a.addq(r1, 1, r1);
    a.halt();
    auto p = a.finalize();
    sim::OooScheduler sched(sim::MachineConfig::fourWide());
    isa::Machine m;
    m.run(p, &sched);
    sched.finish();
    EXPECT_TRUE(sched.timelineEntries().empty());
}

TEST(OpMix, FractionsSumToOneAndMatchTrace)
{
    Xorshift64 rng(1);
    auto key = rng.bytes(16);
    auto iv = rng.bytes(8);
    auto build = kernels::buildKernel(crypto::CipherId::Blowfish,
                                      kernels::KernelVariant::BaselineRot,
                                      key, iv, 256);
    isa::Machine m;
    auto pt = rng.bytes(256);
    build.install(m, kernels::toWordImage(crypto::CipherId::Blowfish, pt));
    kernels::OpMixCounter mix(build);
    auto stats = m.run(build.program, &mix);

    uint64_t counted = 0;
    double sum = 0;
    for (unsigned c = 0; c < kernels::num_op_categories; c++) {
        counted += mix.count(static_cast<kernels::OpCategory>(c));
        sum += mix.fraction(static_cast<kernels::OpCategory>(c));
    }
    EXPECT_EQ(counted, stats.instructions);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Blowfish: substitutions dominate the dynamic mix.
    EXPECT_GT(mix.fraction(kernels::OpCategory::Substitution), 0.4);
}

TEST(KernelBuild, InstallRejectsWrongInputSize)
{
    Xorshift64 rng(2);
    auto key = rng.bytes(16);
    auto iv = rng.bytes(8);
    auto build = kernels::buildKernel(crypto::CipherId::Blowfish,
                                      kernels::KernelVariant::Optimized,
                                      key, iv, 64);
    isa::Machine m;
    auto wrong = rng.bytes(32);
    EXPECT_THROW(build.install(m, wrong), std::invalid_argument);
}

TEST(KernelBuild, RejectsRaggedSessions)
{
    Xorshift64 rng(3);
    auto key = rng.bytes(16);
    auto iv = rng.bytes(8);
    EXPECT_THROW(kernels::buildKernel(crypto::CipherId::Blowfish,
                                      kernels::KernelVariant::Optimized,
                                      key, iv, 13),
                 std::invalid_argument);
    EXPECT_THROW(kernels::buildKernel(crypto::CipherId::Blowfish,
                                      kernels::KernelVariant::Optimized,
                                      key, iv, 0),
                 std::invalid_argument);
}

} // namespace
