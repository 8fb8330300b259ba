/**
 * @file
 * Bimodal branch predictor with 2-bit saturating counters.
 *
 * Cipher kernel branches are dominated by round-loop back edges, so a
 * simple bimodal table predicts them almost perfectly — exactly the
 * observation the paper makes when it finds branch mispredictions are
 * not a bottleneck for any cipher.
 */

#ifndef CRYPTARCH_SIM_BRANCH_PRED_HH
#define CRYPTARCH_SIM_BRANCH_PRED_HH

#include <cstdint>
#include <vector>

namespace cryptarch::sim
{

/** Bimodal predictor. Unconditional branches are always predicted. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(unsigned entries = 2048);

    /**
     * Predict and update for a conditional branch at @p pc whose real
     * outcome is @p taken. Returns true when the prediction was
     * correct.
     */
    bool predict(uint32_t pc, bool taken);

    uint64_t lookups() const { return numLookups; }
    uint64_t mispredicts() const { return numMispredicts; }

  private:
    std::vector<uint8_t> table; ///< 2-bit counters, initialized weakly taken
    uint32_t indexMask = 0;     ///< size-1 when the table is a power of two
    uint64_t numLookups = 0;
    uint64_t numMispredicts = 0;
};

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_BRANCH_PRED_HH
