/**
 * @file
 * Config admission layer: the ConfigError taxonomy, configs admitted
 * and modelled as given, and the typed rejections thrown from Cache
 * and scheduler construction.
 */

#include <gtest/gtest.h>

#include "isa/program.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/pipeline.hh"
#include "sim/validate.hh"

namespace
{

using namespace cryptarch;
using sim::ConfigError;
using sim::ConfigErrorKind;
using sim::MachineConfig;

ConfigErrorKind
kindOf(const MachineConfig &cfg)
{
    auto err = sim::validateConfig(cfg);
    EXPECT_TRUE(err.has_value()) << "expected " << cfg.name << " to fail";
    return err ? err->kind : ConfigErrorKind{};
}

TEST(Validate, PresetsAreAdmissible)
{
    for (const auto &cfg :
         {MachineConfig::fourWide(), MachineConfig::alpha21264(),
          MachineConfig::fourWidePlus(), MachineConfig::eightWidePlus(),
          MachineConfig::dataflow(), MachineConfig::dfPlusAlias(),
          MachineConfig::dfPlusBranch(), MachineConfig::dfPlusIssue(),
          MachineConfig::dfPlusMem(), MachineConfig::dfPlusResources(),
          MachineConfig::dfPlusWindow()}) {
        auto err = sim::validateConfig(cfg);
        EXPECT_FALSE(err.has_value())
            << cfg.name << ": " << (err ? err->message() : "");
    }
    // The 21264 preset's predictor size, which its figure columns use.
    EXPECT_EQ(MachineConfig::alpha21264().predictorEntries, 4096u);
}

TEST(Validate, ZeroGeometryIsClassified)
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.l1d.blockBytes = 0;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::ZeroGeometry);

    cfg = MachineConfig::fourWide();
    cfg.l2.assoc = 0;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::ZeroGeometry);

    cfg = MachineConfig::fourWide();
    cfg.l1d.sizeBytes = 0;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::ZeroGeometry);

    cfg = MachineConfig::fourWide();
    cfg.pageBytes = 0;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::ZeroGeometry);

    cfg = MachineConfig::fourWide();
    cfg.dtlbEntries = 0;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::ZeroGeometry);

    cfg = MachineConfig::fourWide();
    cfg.predictorEntries = 0;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::ZeroGeometry);
}

TEST(Validate, BadGeometryIsClassified)
{
    // Cache smaller than one set.
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.l1d = {16, 2, 32};
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::BadGeometry);

    // Size not divisible by blockBytes * assoc.
    cfg = MachineConfig::fourWide();
    cfg.l2 = {100, 4, 32};
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::BadGeometry);

    // TLB entries not divisible by associativity.
    cfg = MachineConfig::fourWide();
    cfg.dtlbEntries = 32;
    cfg.dtlbAssoc = 5;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::BadGeometry);
}

TEST(Validate, InconsistentLatencyIsClassified)
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.aluLat = 0;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::InconsistentLatency);

    cfg = MachineConfig::fourWide();
    cfg.mulLat32 = cfg.mulLat64 + 1;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::InconsistentLatency);

    cfg = MachineConfig::fourWide();
    cfg.l2HitLat = cfg.memLat + 1;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::InconsistentLatency);
}

TEST(Validate, SingleMulHalfSlotIsAdmissible)
{
    // A 1-slot multiplier pool can never issue a 64-bit MULQ, but the
    // optimized kernels issue none (ablation_resources' 2-wide machine
    // has exactly this pool). Programs that do issue MULQ on it stall,
    // and the watchdog owns that case (test_watchdog.cc).
    MachineConfig cfg = MachineConfig::fourWide();
    for (unsigned slots : {sim::unlimited, 1u, 2u}) {
        cfg.mulHalfSlots = slots;
        EXPECT_FALSE(sim::validateConfig(cfg).has_value()) << slots;
    }
}

TEST(Validate, OversizedIsClassified)
{
    // A line array in the hundreds of millions is an allocation bomb,
    // not a machine model.
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.l2 = {1u << 31, 1, 32};
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::Oversized);

    // TLB entries * pageBytes overflowing the 32-bit backing geometry.
    cfg = MachineConfig::fourWide();
    cfg.dtlbEntries = 1 << 16;
    cfg.dtlbAssoc = 8;
    cfg.pageBytes = 1 << 20;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::Oversized);
}

TEST(Validate, ErrorMessageNamesKindAndField)
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.l2HitLat = cfg.memLat + 1;
    auto err = sim::validateConfig(cfg);
    ASSERT_TRUE(err.has_value());
    const std::string msg = err->message();
    EXPECT_NE(msg.find("inconsistent-latency"), std::string::npos) << msg;
    EXPECT_NE(msg.find("l2HitLat"), std::string::npos) << msg;
}

TEST(Validate, CacheRejectsZeroGeometryTyped)
{
    // Satellite (a): the former assert/UB path is now a typed throw,
    // in release builds too.
    try {
        sim::Cache cache({0, 1, 32});
        FAIL() << "zero blockBytes accepted";
    } catch (const sim::ConfigRejected &e) {
        EXPECT_EQ(e.error().kind, ConfigErrorKind::ZeroGeometry);
    }
    try {
        sim::Cache cache({4096, 0, 32});
        FAIL() << "zero assoc accepted";
    } catch (const sim::ConfigRejected &e) {
        EXPECT_EQ(e.error().kind, ConfigErrorKind::ZeroGeometry);
    }
    try {
        sim::Cache cache({16, 2, 32});
        FAIL() << "sub-set-size cache accepted";
    } catch (const sim::ConfigRejected &e) {
        EXPECT_EQ(e.error().kind, ConfigErrorKind::BadGeometry);
    }
}

TEST(Validate, SchedulerConstructionRejects)
{
    MachineConfig bad = MachineConfig::fourWide();
    bad.l2HitLat = bad.memLat + 1;
    bad.name = "bad-l2-latency";
    EXPECT_THROW(sim::OooScheduler sched(bad), sim::ConfigRejected);
}

TEST(Validate, SchedulerCanonicalizesOnAdmission)
{
    // Non-pow2 predictor and DTLB entry counts are admitted as given:
    // the predictor and the DTLB's cache index any size by modulo.
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.predictorEntries = 3000;
    cfg.dtlbEntries = 48;
    cfg.dtlbAssoc = 8;
    EXPECT_FALSE(sim::validateConfig(cfg).has_value());
    const MachineConfig admitted = sim::hardenedConfig(cfg);
    EXPECT_EQ(admitted.predictorEntries, 3000u);
    EXPECT_EQ(admitted.dtlbEntries, 48u);
    EXPECT_NO_THROW(sim::OooScheduler sched(cfg));
}

/** Stats of @p p on @p cfg as the Machine runs it. */
sim::SimStats
runLive(const isa::Program &p, const MachineConfig &cfg)
{
    isa::Machine m;
    sim::OooScheduler sched(cfg);
    m.run(p, &sched);
    return sched.finish();
}

TEST(Validate, NonPow2PredictorIsModelledAtTheSizeGiven)
{
    // Two not-taken branches at pcs 0 and 3. With 3 entries they share
    // a counter: the first mispredicts (weakly taken at reset) and
    // trains it to not-taken, so the second is predicted. With 2 or 4
    // entries they do not share, and both mispredict.
    isa::Assembler a;
    constexpr isa::Reg r1{1}, r2{2};
    a.bne(r1, "end");
    a.addq(r2, 1, r2);
    a.addq(r2, 1, r2);
    a.bne(r1, "end");
    a.label("end");
    a.halt();
    const isa::Program p = a.finalize();

    MachineConfig cfg = MachineConfig::fourWide();
    for (auto [entries, mispredicts] :
         {std::pair{3u, 1u}, std::pair{2u, 2u}, std::pair{4u, 2u}}) {
        cfg.predictorEntries = entries;
        const sim::SimStats stats = runLive(p, cfg);
        EXPECT_EQ(stats.condBranches, 2u) << entries;
        EXPECT_EQ(stats.mispredicts, mispredicts) << entries;
    }
}

TEST(Validate, NonPow2DtlbIsModelledAtTheSizeGiven)
{
    // Pages 0, 3, 6, 9 and 12, loaded twice in turn. A 12-entry 4-way
    // DTLB has 3 sets, so all five pages fall in set 0 and LRU evicts
    // each before its reuse: 10 misses. With 8 or 16 entries (2 or 4
    // sets) no set holds more than 4 of them: 5 cold misses.
    MachineConfig cfg = MachineConfig::fourWide();
    isa::Assembler a;
    constexpr isa::Reg r1{1}, r2{2};
    for (int pass = 0; pass < 2; pass++) {
        for (int64_t page : {0, 3, 6, 9, 12}) {
            a.li(page * cfg.pageBytes, r1);
            a.ldq(r2, r1);
        }
    }
    a.halt();
    const isa::Program p = a.finalize();

    cfg.dtlbAssoc = 4;
    for (auto [entries, misses] :
         {std::pair{12u, 10u}, std::pair{8u, 5u}, std::pair{16u, 5u}}) {
        cfg.dtlbEntries = entries;
        const sim::SimStats stats = runLive(p, cfg);
        EXPECT_EQ(stats.tlb.accesses, 10u) << entries;
        EXPECT_EQ(stats.tlb.misses, misses) << entries;
    }
}

TEST(Validate, KindNamesAreStable)
{
    EXPECT_STREQ(sim::configErrorKindName(ConfigErrorKind::ZeroGeometry),
                 "zero-geometry");
    EXPECT_STREQ(sim::configErrorKindName(ConfigErrorKind::BadGeometry),
                 "bad-geometry");
    EXPECT_STREQ(
        sim::configErrorKindName(ConfigErrorKind::InconsistentLatency),
        "inconsistent-latency");
    EXPECT_STREQ(sim::configErrorKindName(ConfigErrorKind::Oversized),
                 "oversized");
}

} // namespace
