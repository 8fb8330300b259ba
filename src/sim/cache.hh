/**
 * @file
 * Cache and SBox-cache models for the timing simulator.
 *
 * These are latency-oracle models: each access returns the cycles the
 * access costs and updates replacement state. The out-of-order
 * scheduler queries them in program order, which is accurate enough
 * for the cipher kernels (the paper observes they rarely miss at all —
 * one value is read and then computed on for hundreds of cycles).
 */

#ifndef CRYPTARCH_SIM_CACHE_HH
#define CRYPTARCH_SIM_CACHE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/config.hh"

namespace cryptarch::sim
{

/** Hit/miss statistics of a cache-like structure. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
};

/** Set-associative cache with LRU replacement. */
class Cache
{
  public:
    Cache(const CacheGeometry &geom);

    /** Probe-and-fill: returns true on hit. */
    bool
    access(uint64_t addr)
    {
        stat.accesses++;
        const uint64_t block = blockOf(addr);
        // The block of the latest access, with no fill since: a hit on
        // the line holding the newest stamp. Re-stamping it would keep
        // every line's LRU order as it is, and only that order picks
        // victims. The auditor checks the line is there.
        if (lastValid && block == lastBlock) {
            if (auditing) [[unlikely]]
                auditRepeat(block);
            return true;
        }
        return lookup(block);
    }
    /** Fill without counting an access (prefetch). */
    void prefetch(uint64_t addr);
    /** Probe without filling or counting. */
    bool
    contains(uint64_t addr) const
    {
        const uint64_t block = blockOf(addr);
        const Line *ways = &lines[static_cast<size_t>(setOf(block)) * assoc];
        for (uint32_t w = 0; w < assoc; w++) {
            if (ways[w].valid && ways[w].tag == block)
                return true;
        }
        return false;
    }

    const CacheStats &stats() const { return stat; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        uint64_t lruStamp = 0;
    };

    /** access() past the repeat check. */
    bool lookup(uint64_t block);
    /** Audit-mode (setSimAudit) check of a repeat hit on @p block:
     *  throws AuditError when no line holds it. */
    void auditRepeat(uint64_t block) const;
    /** Put @p block in the LRU (or first invalid) way of @p ways,
     *  stamped with the current stamp. */
    void fill(Line *ways, uint64_t block);

    // Block/set math runs on every simulated memory access, so the
    // usual power-of-two geometries use precomputed shift/mask forms
    // instead of a divide and a modulo per probe.
    uint64_t
    blockOf(uint64_t addr) const
    {
        return blockShift >= 0 ? addr >> blockShift : addr / blockBytes;
    }

    uint32_t
    setOf(uint64_t block) const
    {
        return setsPow2 ? block & (numSets - 1) : block % numSets;
    }

    uint32_t blockBytes;
    uint32_t numSets;
    uint32_t assoc;
    int blockShift = -1; ///< log2(blockBytes) when a power of two
    bool setsPow2 = false;
    std::vector<Line> lines; ///< numSets x assoc
    uint64_t stamp = 0;
    bool lastValid = false;  ///< lastBlock is the latest access, no fill since
    uint64_t lastBlock = 0;
    bool auditing = false;   ///< simAuditEnabled() at construction
    CacheStats stat;
};

/**
 * Two-level data memory: L1 with next-line prefetch backed by a
 * unified L2, plus a DTLB (a Cache with one page per block). Returns
 * total access latency in cycles.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MachineConfig &cfg);

    /**
     * Latency of a data access at @p addr. The model charges one block
     * per access: accesses are naturally aligned, so one spans two
     * blocks only when a block is narrower than the access.
     */
    unsigned
    access(uint64_t addr)
    {
        if (cfg.perfectMemory)
            return 0;

        unsigned extra = 0;
        if (!tlb.access(addr))
            extra += cfg.dtlbMissLat;

        if (l1.access(addr)) {
            // L1 hit: no cycles beyond the base load latency.
        } else if (l2.access(addr)) {
            extra += cfg.l2HitLat;
        } else {
            extra += cfg.memLat;
        }
        if (cfg.nextLinePrefetch) {
            uint64_t next = addr + cfg.l1d.blockBytes;
            if (!l1.contains(next)) {
                l1.prefetch(next);
                l2.prefetch(next);
            }
        }
        return extra;
    }

    const CacheStats &l1Stats() const { return l1.stats(); }
    const CacheStats &l2Stats() const { return l2.stats(); }
    const CacheStats &tlbStats() const { return tlb.stats(); }

  private:
    const MachineConfig &cfg;
    Cache l1;
    Cache l2;
    Cache tlb;
};

/**
 * A dedicated SBox cache: one tag (the table base) over a 1 KB frame
 * of 32-byte sectors, per paper section 5. Read-only; SBOXSYNC clears
 * the sector valid bits, a tag change flushes.
 */
class SboxCache
{
  public:
    /** Access the table frame at @p frame_base with byte offset
     *  @p offset; returns true when the sector was valid (1-cycle
     *  access), false when it had to be demand-fetched from the
     *  D-cache. */
    bool access(uint64_t frame_base, unsigned offset);

    /** SBOXSYNC: invalidate all sectors (tag kept). */
    void sync();

    const CacheStats &stats() const { return stat; }

  private:
    static constexpr unsigned num_sectors = 32; // 1 KB / 32 B
    uint64_t tag = 0;
    bool tagValid = false;
    std::array<bool, num_sectors> sectorValid{};
    CacheStats stat;
};

} // namespace cryptarch::sim

#endif // CRYPTARCH_SIM_CACHE_HH
