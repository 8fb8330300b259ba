#include "driver/grids.hh"

#include <string>

namespace cryptarch::driver
{

using kernels::KernelVariant;
using sim::MachineConfig;

SweepSpec
fig04Spec()
{
    SweepSpec spec;
    spec.ciphers = allCiphers();
    spec.variants = {KernelVariant::BaselineRot};
    spec.models = {MachineConfig::alpha21264(), MachineConfig::fourWide(),
                   MachineConfig::dataflow()};
    return spec;
}

SweepSpec
fig05Spec()
{
    SweepSpec spec;
    spec.ciphers = allCiphers();
    spec.variants = {KernelVariant::BaselineRot};
    spec.models = {MachineConfig::dataflow(),
                   MachineConfig::dfPlusAlias(),
                   MachineConfig::dfPlusBranch(),
                   MachineConfig::dfPlusIssue(),
                   MachineConfig::dfPlusMem(),
                   MachineConfig::dfPlusResources(),
                   MachineConfig::dfPlusWindow(),
                   MachineConfig::fourWide()};
    return spec;
}

std::vector<SweepCell>
fig10Cells()
{
    const MachineConfig w4 = MachineConfig::fourWide();
    std::vector<SweepCell> cells;
    for (auto id : allCiphers()) {
        cells.push_back({id, KernelVariant::BaselineRot, w4, session_bytes});
        cells.push_back(
            {id, KernelVariant::BaselineNoRot, w4, session_bytes});
        cells.push_back({id, KernelVariant::Optimized, w4, session_bytes});
        cells.push_back({id, KernelVariant::Optimized,
                         MachineConfig::fourWidePlus(), session_bytes});
        cells.push_back({id, KernelVariant::Optimized,
                         MachineConfig::eightWidePlus(), session_bytes});
        cells.push_back({id, KernelVariant::Optimized,
                         MachineConfig::dataflow(), session_bytes});
    }
    return cells;
}

SweepSpec
tab02Spec()
{
    SweepSpec spec;
    spec.ciphers = allCiphers();
    spec.variants = {KernelVariant::Optimized};
    spec.models = {MachineConfig::fourWide(), MachineConfig::fourWidePlus(),
                   MachineConfig::eightWidePlus(),
                   MachineConfig::dataflow()};
    return spec;
}

MachineConfig
issueWidthConfig(unsigned w)
{
    MachineConfig cfg = MachineConfig::fourWidePlus();
    cfg.issueWidth = w;
    cfg.fetchWidth = w;
    cfg.fetchBlocksPerCycle = (w + 3) / 4;
    cfg.numIntAlu = w;
    cfg.numRotUnits = w;
    cfg.mulHalfSlots = w / 2;
    cfg.numDCachePorts = (w + 1) / 2;
    cfg.windowSize = 32 * w;
    cfg.name = std::to_string(w) + "-wide";
    return cfg;
}

} // namespace cryptarch::driver
