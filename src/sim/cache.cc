#include "sim/cache.hh"

#include <bit>
#include <string>
#include <utility>

#include "sim/validate.hh"

namespace cryptarch::sim
{

Cache::Cache(const CacheGeometry &geom)
    : blockBytes(geom.blockBytes), assoc(geom.assoc)
{
    // Config validation's rule, so a direct construction from a
    // degenerate geometry gets its typed error, not a divide by zero.
    if (auto err = checkGeometry("cache", geom))
        throw ConfigRejected(std::move(*err));
    numSets = geom.sizeBytes / (geom.blockBytes * geom.assoc);
    lines.resize(static_cast<size_t>(numSets) * assoc);
    if ((blockBytes & (blockBytes - 1)) == 0)
        blockShift = std::countr_zero(blockBytes);
    setsPow2 = (numSets & (numSets - 1)) == 0;
    auditing = simAuditEnabled();
}

void
Cache::auditRepeat(uint64_t block) const
{
    const Line *ways = &lines[static_cast<size_t>(setOf(block)) * assoc];
    for (uint32_t w = 0; w < assoc; w++)
        if (ways[w].valid && ways[w].tag == block)
            return;
    // A cache has no instruction to name: seq is its access count.
    throw AuditError("cache-repeat", stat.accesses, 0,
                     "block " + std::to_string(block)
                         + " was answered as a repeat of the latest "
                           "access, but no line holds it");
}

void
Cache::fill(Line *ways, uint64_t block)
{
    Line *victim = &ways[0];
    for (uint32_t w = 1; w < assoc; w++) {
        if (!ways[w].valid) {
            victim = &ways[w];
            break;
        }
        if (ways[w].lruStamp < victim->lruStamp && victim->valid)
            victim = &ways[w];
    }
    victim->valid = true;
    victim->tag = block;
    victim->lruStamp = stamp;
}

bool
Cache::lookup(uint64_t block)
{
    lastValid = true;
    lastBlock = block;
    Line *ways = &lines[static_cast<size_t>(setOf(block)) * assoc];
    stamp++;
    for (uint32_t w = 0; w < assoc; w++) {
        if (ways[w].valid && ways[w].tag == block) {
            ways[w].lruStamp = stamp;
            return true;
        }
    }
    stat.misses++;
    fill(ways, block);
    return false;
}

void
Cache::prefetch(uint64_t addr)
{
    if (contains(addr))
        return;
    lastValid = false;
    const uint64_t block = blockOf(addr);
    stamp++;
    fill(&lines[static_cast<size_t>(setOf(block)) * assoc], block);
}

MemoryHierarchy::MemoryHierarchy(const MachineConfig &cfg)
    : cfg(cfg), l1(cfg.l1d), l2(cfg.l2),
      tlb(CacheGeometry{cfg.dtlbEntries * cfg.pageBytes, cfg.dtlbAssoc,
                        cfg.pageBytes})
{
}

bool
SboxCache::access(uint64_t frame_base, unsigned offset)
{
    stat.accesses++;
    unsigned sector = (offset / 32) % num_sectors;
    if (tagValid && tag == frame_base && sectorValid[sector])
        return true;
    stat.misses++;
    if (!tagValid || tag != frame_base) {
        // Tag change: flush every sector.
        sectorValid.fill(false);
        tag = frame_base;
        tagValid = true;
    }
    sectorValid[sector] = true;
    return false;
}

void
SboxCache::sync()
{
    sectorValid.fill(false);
}

} // namespace cryptarch::sim
