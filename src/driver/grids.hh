/**
 * @file
 * The paper figure/table sweep grids, defined once.
 *
 * The bench binaries and the driver tests share these definitions, so
 * the "one functional interpretation per (cipher, variant)" property
 * the tests assert is a property of exactly the grids the figures run.
 */

#ifndef CRYPTARCH_DRIVER_GRIDS_HH
#define CRYPTARCH_DRIVER_GRIDS_HH

#include "driver/sweep.hh"

namespace cryptarch::driver
{

/**
 * Figure 4: all ciphers, BaselineRot kernels, on the 21264-class, 4W
 * and DF machines (the 1-CPI column is the trace length, free with any
 * of the three). One functional pass per cipher.
 */
SweepSpec fig04Spec();

/**
 * Figure 10: per cipher, the five bars — BaselineNoRot on 4W,
 * Optimized on 4W/4W+/8W+/DF — plus the BaselineRot/4W normalization
 * baseline. Three functional passes per cipher (one per variant).
 */
std::vector<SweepCell> fig10Cells();

/**
 * Table 2 companion run: the optimized kernels across the four
 * first-class machine models, giving the per-model SimStats behind the
 * model-parameter table. One functional pass per cipher.
 */
SweepSpec tab02Spec();

/**
 * The ablation_resources issue-width machine: 4W+ at @p w-wide issue
 * and fetch, with the ALU, rotator, multiplier, D-cache port and
 * window resources scaled with the width. Named "<w>-wide".
 */
sim::MachineConfig issueWidthConfig(unsigned w);

} // namespace cryptarch::driver

#endif // CRYPTARCH_DRIVER_GRIDS_HH
