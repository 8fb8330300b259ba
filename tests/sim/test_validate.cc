/**
 * @file
 * Config admission layer: the ConfigError taxonomy, canonicalization
 * fixed points, and the typed rejections thrown from Cache and
 * scheduler construction.
 */

#include <gtest/gtest.h>

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

TEST(Validate, NonPow2IsReportedRaw)
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.predictorEntries = 3000;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::NonPow2);

    cfg = MachineConfig::fourWide();
    cfg.dtlbEntries = 48;
    cfg.dtlbAssoc = 8;
    EXPECT_EQ(kindOf(cfg), ConfigErrorKind::NonPow2);
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

TEST(Validate, CanonicalizeRoundsDownToPow2)
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.predictorEntries = 3000;
    cfg.dtlbEntries = 48;
    cfg.dtlbAssoc = 8;
    std::vector<sim::ConfigAdjustment> adjustments;
    MachineConfig fixed = sim::canonicalizeConfig(cfg, &adjustments);
    EXPECT_EQ(fixed.predictorEntries, 2048u);
    EXPECT_EQ(fixed.dtlbEntries, 32u);
    ASSERT_EQ(adjustments.size(), 2u);
    EXPECT_EQ(adjustments[0].field, "predictorEntries");
    EXPECT_EQ(adjustments[0].from, 3000u);
    EXPECT_EQ(adjustments[0].to, 2048u);
    EXPECT_EQ(adjustments[1].field, "dtlbEntries");
    EXPECT_EQ(adjustments[1].from, 48u);
    EXPECT_EQ(adjustments[1].to, 32u);
    // The repaired config is admissible.
    EXPECT_FALSE(sim::validateConfig(fixed).has_value());
}

TEST(Validate, PresetsAreCanonicalFixedPoints)
{
    // The 21264 preset regression of the satellite: its 4096-entry
    // predictor is already a power of two and must pass through
    // untouched, keeping index masks (and figure grids) unchanged.
    for (const auto &cfg :
         {MachineConfig::fourWide(), MachineConfig::alpha21264(),
          MachineConfig::eightWidePlus(), MachineConfig::dataflow()}) {
        std::vector<sim::ConfigAdjustment> adjustments;
        MachineConfig fixed = sim::canonicalizeConfig(cfg, &adjustments);
        EXPECT_TRUE(adjustments.empty()) << cfg.name;
        EXPECT_EQ(fixed.predictorEntries, cfg.predictorEntries) << cfg.name;
        EXPECT_EQ(fixed.dtlbEntries, cfg.dtlbEntries) << cfg.name;
    }
    EXPECT_EQ(MachineConfig::alpha21264().predictorEntries, 4096u);
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

TEST(Validate, SchedulerConstructionRejectsAndTrustedSkips)
{
    MachineConfig bad = MachineConfig::fourWide();
    bad.l2HitLat = bad.memLat + 1;
    bad.name = "bad-l2-latency";
    EXPECT_THROW(sim::OooScheduler sched(bad), sim::ConfigRejected);

    // Trusted policy admits the same config verbatim.
    EXPECT_NO_THROW(
        sim::OooScheduler sched(bad, sim::ConfigPolicy::Trusted));
}

TEST(Validate, SchedulerCanonicalizesOnAdmission)
{
    // A non-pow2 predictor is repaired, not rejected, on the default
    // policy.
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.predictorEntries = 3000;
    EXPECT_NO_THROW(sim::OooScheduler sched(cfg));
}

TEST(Validate, KindNamesAreStable)
{
    EXPECT_STREQ(sim::configErrorKindName(ConfigErrorKind::ZeroGeometry),
                 "zero-geometry");
    EXPECT_STREQ(sim::configErrorKindName(ConfigErrorKind::BadGeometry),
                 "bad-geometry");
    EXPECT_STREQ(sim::configErrorKindName(ConfigErrorKind::NonPow2),
                 "non-pow2");
    EXPECT_STREQ(
        sim::configErrorKindName(ConfigErrorKind::InconsistentLatency),
        "inconsistent-latency");
    EXPECT_STREQ(sim::configErrorKindName(ConfigErrorKind::Oversized),
                 "oversized");
}

} // namespace
