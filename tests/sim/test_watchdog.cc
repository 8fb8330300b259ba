/**
 * @file
 * Forward-progress watchdog: a MULQ on a 1-slot multiplier pool (an
 * admissible config) livelocks the issue loop; the watchdog converts
 * that into a typed isa::Trap{NoProgress} carrying the stalled
 * frontier, and never fires on machines that can issue everything.
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/trap.hh"
#include "sim/pipeline.hh"
#include "sim/validate.hh"

namespace
{

using namespace cryptarch;
using sim::MachineConfig;

constexpr isa::Reg r1{1}, r2{2}, r3{3};

/** A few independent adds, one 64-bit multiply, a few more adds. */
isa::Program
mulqProgram()
{
    isa::Assembler a;
    a.li(7, r1);
    a.li(9, r2);
    for (int i = 0; i < 8; i++)
        a.addq(r1, 1, r1);
    a.mulq(r1, r2, r3);
    for (int i = 0; i < 8; i++)
        a.addq(r3, 1, r3);
    a.halt();
    return a.finalize();
}

/** The livelock config: MULQ needs 2 half-slots, the pool has 1. */
MachineConfig
oneHalfSlot()
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.name = "4W-mul1";
    cfg.mulHalfSlots = 1;
    return cfg;
}

TEST(Watchdog, UnsatisfiableMulPoolTrapsInsteadOfHanging)
{
    isa::Machine m;
    try {
        sim::simulate(m, mulqProgram(), oneHalfSlot());
        FAIL() << "expected the watchdog to fire";
    } catch (const isa::Trap &t) {
        EXPECT_EQ(t.cause(), isa::TrapCause::NoProgress);
        // The trap carries the stalled-frontier snapshot: the model,
        // the oldest un-issued instruction's class, and what it is
        // blocked on.
        const std::string msg = t.what();
        EXPECT_NE(msg.find("no forward progress"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("4W-mul1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("IntMult"), std::string::npos) << msg;
    }
}

TEST(Watchdog, BudgetOverrideShortensTheFuse)
{
    ASSERT_EQ(sim::progressBudgetOverride(), 0u);
    sim::setProgressBudgetOverride(64);
    isa::Machine m;
    try {
        sim::simulate(m, mulqProgram(), oneHalfSlot());
        sim::setProgressBudgetOverride(0);
        FAIL() << "expected the watchdog to fire";
    } catch (const isa::Trap &t) {
        sim::setProgressBudgetOverride(0);
        EXPECT_EQ(t.cause(), isa::TrapCause::NoProgress);
        // The message reports the base budget actually in force.
        EXPECT_NE(std::string(t.what()).find("base budget 64"),
                  std::string::npos)
            << t.what();
    }
}

/** DF+Res with a 1-slot multiplier pool: issue width unlimited, and
 *  MULQ's 2 half-slots never fit. */
MachineConfig
dfResOneHalfSlot()
{
    MachineConfig cfg = MachineConfig::dfPlusResources();
    cfg.mulHalfSlots = 1;
    return cfg;
}

TEST(Watchdog, UnlimitedIssueUnsatisfiablePoolTraps)
{
    // The unlimited-issue scheduler finds a unit's first free cycle in
    // one scan; a pool the units can never fit keeps the probe loop, so
    // the trap must still fire on a trusted (unvalidated) config.
    isa::Machine m;
    sim::OooScheduler sched(dfResOneHalfSlot(), sim::ConfigPolicy::Trusted);
    try {
        m.run(mulqProgram(), &sched, 1000);
        FAIL() << "expected the watchdog to fire";
    } catch (const isa::Trap &t) {
        EXPECT_EQ(t.cause(), isa::TrapCause::NoProgress);
        EXPECT_NE(std::string(t.what()).find("'DF+Res'"),
                  std::string::npos)
            << t.what();
    }
}

TEST(Watchdog, UnlimitedIssueTripMessageIsPinned)
{
    // The stalled-frontier snapshot, byte for byte: the probe the trap
    // fires at and every count in it are part of the contract. (On the
    // one-scan path the trap cannot fire: each cycle that fails a unit
    // already holds an earlier instruction's booking, so the wait never
    // exceeds the instruction index, let alone the budget.)
    ASSERT_EQ(sim::progressBudgetOverride(), 0u);
    sim::setProgressBudgetOverride(16);
    std::string msg;
    try {
        isa::Machine m;
        sim::simulate(m, mulqProgram(), dfResOneHalfSlot());
    } catch (const isa::Trap &t) {
        msg = t.what();
    }
    sim::setProgressBudgetOverride(0);
    EXPECT_EQ(msg,
              "Machine trap [no-progress]: scheduler made no forward "
              "progress on model 'DF+Res': seq=10 pc=10 class=IntMult "
              "blocked on fu_mul (ready cycle 9, probed through cycle "
              "105: 97 failed unit bookings, 0 issue-slot wait cycles; "
              "base budget 16) at pc=10 seq=10");
}

TEST(Watchdog, AdmissibleMachinesNeverFire)
{
    // The same MULQ-bearing program completes on every preset: the
    // budget comparison stays quiet on contended-but-live pools.
    auto p = mulqProgram();
    for (const auto &cfg :
         {MachineConfig::fourWide(), MachineConfig::fourWidePlus(),
          MachineConfig::eightWidePlus(), MachineConfig::dataflow(),
          MachineConfig::dfPlusResources()}) {
        isa::Machine m;
        auto stats = sim::simulate(m, p, cfg);
        EXPECT_GT(stats.cycles, 0u) << cfg.name;
        EXPECT_EQ(stats.instructions, 20u) << cfg.name;
    }
}

TEST(Watchdog, TightButSatisfiablePoolStillCompletes)
{
    // mulHalfSlots == 2 is the minimum satisfiable pool: one MULQ per
    // cycle, heavy retry pressure but guaranteed progress. A long
    // burst of multiplies must complete, not trap.
    isa::Assembler a;
    a.li(3, r1);
    a.li(5, r2);
    for (int i = 0; i < 200; i++)
        a.mulq(r1, r2, r3);
    a.halt();
    auto p = a.finalize();

    MachineConfig cfg = MachineConfig::fourWide();
    cfg.name = "4W-mul2";
    cfg.mulHalfSlots = 2;
    isa::Machine m;
    auto stats = sim::simulate(m, p, cfg);
    EXPECT_EQ(stats.instructions, 203u);
}

} // namespace
