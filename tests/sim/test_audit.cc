/**
 * @file
 * Runtime invariant auditor (sim::setSimAudit): auditing real
 * kernel traces on every preset passes cleanly and changes no
 * statistic, so audit-on paper grids stay byte-identical.
 */

#include <gtest/gtest.h>

#include "driver/workload.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"
#include "sim/validate.hh"

namespace
{

using namespace cryptarch;
using sim::MachineConfig;
using sim::SimStats;

/** RAII audit-mode toggle: tests must not leak the flag. */
class AuditGuard
{
  public:
    explicit AuditGuard(bool on) : prev(sim::simAuditEnabled())
    {
        sim::setSimAudit(on);
    }
    ~AuditGuard() { sim::setSimAudit(prev); }

  private:
    bool prev;
};

SimStats
runKernel(crypto::CipherId cipher, kernels::KernelVariant variant,
          const MachineConfig &cfg)
{
    driver::Workload w = driver::makeWorkload(cipher, 512);
    auto build = kernels::buildKernel(cipher, variant, w.key, w.iv, 512);
    isa::Machine m;
    build.install(m, kernels::toWordImage(cipher, w.plaintext));
    sim::OooScheduler sched(cfg);
    m.run(build.program, &sched);
    return sched.finish();
}

TEST(Audit, KernelsPassOnEveryPreset)
{
    // The auditor re-derives the scheduler's cycle accounting per
    // retired instruction: event ordering, exact stall tiling of the
    // dispatch-to-issue gap, and resource books within capacity. Real
    // traces across structurally different machines are the broadest
    // exercise of those invariants — any violation throws AuditError.
    AuditGuard audit(true);
    for (auto cipher : {crypto::CipherId::RC4, crypto::CipherId::IDEA,
                        crypto::CipherId::Rijndael}) {
        for (const auto &cfg :
             {MachineConfig::fourWide(), MachineConfig::fourWidePlus(),
              MachineConfig::eightWidePlus(), MachineConfig::dataflow(),
              MachineConfig::dfPlusIssue(),
              MachineConfig::dfPlusResources(),
              MachineConfig::dfPlusWindow()}) {
            EXPECT_NO_THROW(runKernel(
                cipher, kernels::KernelVariant::BaselineRot, cfg))
                << crypto::cipherInfo(cipher).name << " on " << cfg.name;
        }
    }
}

TEST(Audit, AuditingChangesNoStatistic)
{
    // Byte-identity requirement: the auditor observes, never steers.
    for (const auto &cfg :
         {MachineConfig::fourWide(), MachineConfig::eightWidePlus(),
          MachineConfig::dataflow()}) {
        SimStats off, on;
        {
            AuditGuard audit(false);
            off = runKernel(crypto::CipherId::Blowfish,
                            kernels::KernelVariant::Optimized, cfg);
        }
        {
            AuditGuard audit(true);
            on = runKernel(crypto::CipherId::Blowfish,
                           kernels::KernelVariant::Optimized, cfg);
        }
        EXPECT_EQ(off.cycles, on.cycles) << cfg.name;
        EXPECT_EQ(off.instructions, on.instructions) << cfg.name;
        EXPECT_EQ(off.mispredicts, on.mispredicts) << cfg.name;
        EXPECT_EQ(off.stallCycles, on.stallCycles) << cfg.name;
        EXPECT_EQ(off.l1.accesses, on.l1.accesses) << cfg.name;
        EXPECT_EQ(off.l1.misses, on.l1.misses) << cfg.name;
    }
}

TEST(Audit, AuditErrorCarriesTheFrontier)
{
    // The typed report: which invariant, which dynamic instruction.
    sim::AuditError e("stall-tiling", 1234, 56, "gap 7, tiled 6");
    EXPECT_EQ(e.invariant(), "stall-tiling");
    EXPECT_EQ(e.seq(), 1234u);
    EXPECT_EQ(e.pc(), 56u);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("stall-tiling"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1234"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gap 7, tiled 6"), std::string::npos) << msg;
}

} // namespace
