/**
 * @file
 * Microarchitecture model configurations (paper Table 2).
 *
 * Four first-class machines are modeled:
 *
 *   4W   4-issue out-of-order core, 128-entry window, 4 ALUs, 2 D-cache
 *        ports, 2 rotator/XBOX units, optimized multiplies (1x64-bit or
 *        2x32-bit or 2xMULMOD per cycle); SBOX instructions use D-cache
 *        ports (2-cycle access). Loosely modeled after the Alpha 21264.
 *   4W+  4W plus four dedicated single-ported SBox sector caches
 *        (1-cycle access) and two more rotator/XBOX units.
 *   8W+  doubled fetch/issue/resources: 8-wide, 256-entry window,
 *        8 ALUs, 4 D-cache ports, dual-ported SBox caches.
 *   DF   the dataflow machine: infinite fetch/window/issue/resources,
 *        perfect branch prediction, perfect memory and perfect alias
 *        disambiguation. Only true data dependences and operation
 *        latencies constrain execution.
 *
 * Figure 5's bottleneck-isolation models start from DF and re-insert a
 *single constraint (alias ordering, branch prediction, issue width,
 * real memory, baseline FU resources, or finite window).
 */

#ifndef CRYPTARCH_SIM_CONFIG_HH
#define CRYPTARCH_SIM_CONFIG_HH

#include <cstdint>
#include <string>

namespace cryptarch::sim
{

/** Value used for "unlimited" resource counts. */
constexpr unsigned unlimited = 0;

/** Set-associative cache geometry. */
struct CacheGeometry
{
    uint32_t sizeBytes = 0;
    uint32_t assoc = 1;
    uint32_t blockBytes = 32;
};

/** Full machine model description. */
struct MachineConfig
{
    std::string name = "4W";

    // --- Frontend ---
    /** Branch-terminated fetch blocks per cycle (0 = unlimited). */
    unsigned fetchBlocksPerCycle = 1;
    /** Maximum instructions fetched per cycle (0 = unlimited). */
    unsigned fetchWidth = 4;
    /** Perfect branch prediction (the DF setting). */
    bool perfectBranch = false;
    /** Minimum misprediction redirect penalty, cycles. */
    unsigned mispredictPenalty = 8;
    /** Bimodal predictor table entries (any count; pc modulo size). */
    unsigned predictorEntries = 2048;

    // --- Window / issue ---
    /** Re-order buffer entries (0 = unlimited). */
    unsigned windowSize = 128;
    /** Issue (and retire) width (0 = unlimited). */
    unsigned issueWidth = 4;
    /** Frontend depth from fetch to earliest issue, cycles. */
    unsigned frontendDepth = 2;

    // --- Functional units (0 = unlimited) ---
    unsigned numIntAlu = 4;
    /** Rotator/XBOX units (also execute ROLX/RORX). */
    unsigned numRotUnits = 2;
    /**
     * Multiplier half-slots per cycle: a 64-bit MULQ consumes two, a
     * 32-bit MULL or a MULMOD consumes one ("1-64 / 2-32 / 2-16 mod"
     * in Table 2).
     */
    unsigned mulHalfSlots = 2;
    unsigned numDCachePorts = 2;
    /** Dedicated SBox sector caches (0 = SBOX uses D-cache ports). */
    unsigned numSboxCaches = 0;
    /** Accesses per SBox cache per cycle. */
    unsigned sboxCachePorts = 1;
    /** Ideal SBOX handling: 1-cycle, no ports (the DF setting). */
    bool perfectSbox = false;

    // --- Latencies (cycles) ---
    unsigned aluLat = 1;
    unsigned rotLat = 1;
    unsigned mulLat64 = 7;
    unsigned mulLat32 = 4;
    unsigned mulmodLat = 4;
    /** L1 D-cache hit latency for ordinary loads. */
    unsigned loadLat = 3;
    /** SBOX access through a D-cache port (optimized address gen). */
    unsigned sboxOnDcacheLat = 2;
    /** SBOX access through a dedicated SBox cache. */
    unsigned sboxCacheLat = 1;

    // --- Memory system ---
    /** Perfect memory: every access is an L1 hit (the DF setting). */
    bool perfectMemory = false;
    /** Perfect alias disambiguation: loads never wait on prior store
     *  addresses (the DF setting). */
    bool perfectAlias = false;
    CacheGeometry l1d{32 * 1024, 2, 32};
    CacheGeometry l2{512 * 1024, 4, 32};
    unsigned l2HitLat = 12;
    unsigned memLat = 120;
    /** Next-line prefetch in the L1 D-cache. */
    bool nextLinePrefetch = true;
    unsigned dtlbEntries = 32;
    unsigned dtlbAssoc = 8;
    unsigned pageBytes = 8192;
    unsigned dtlbMissLat = 30;

    // --- Factory functions for the paper's models ---
    static MachineConfig fourWide();      ///< Table 2 "4W"
    /**
     * The "21264-class" machine of Figure 4: the 4W core re-parameterized
     * with the Alpha 21264's published differences — an 80-entry
     * in-flight window, a larger predictor, a 7-cycle redirect penalty
     * and the 64 KB 2-way 64 B-line L1 D-cache. The paper measured real
     * 600 MHz 21264 hardware and found it within 10-15% of the 4W
     * model; we have no Alpha hardware, so this config is the stand-in
     * (see DESIGN.md 2.2) — close to 4W by construction, but not the
     * same machine.
     */
    static MachineConfig alpha21264();
    static MachineConfig fourWidePlus();  ///< Table 2 "4W+"
    static MachineConfig eightWidePlus(); ///< Table 2 "8W+"
    static MachineConfig dataflow();      ///< Table 2 "DF"

    /** Figure 5 isolation models: DF plus exactly one constraint. */
    static MachineConfig dfPlusAlias();
    static MachineConfig dfPlusBranch();
    static MachineConfig dfPlusIssue();
    static MachineConfig dfPlusMem();
    static MachineConfig dfPlusResources();
    static MachineConfig dfPlusWindow();
};

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_CONFIG_HH
