#include "sim/cache.hh"

#include <array>

#include "sim/validate.hh"

namespace cryptarch::sim
{

Cache::Cache(const CacheGeometry &geom)
    : blockBytes(geom.blockBytes), assoc(geom.assoc)
{
    // Constructing from a degenerate geometry used to be UB (divide by
    // zero below, zero-sized line array indexed on access). Config
    // validation rejects these before a scheduler is built; direct
    // constructions get the same typed error here.
    if (geom.blockBytes == 0 || geom.assoc == 0 || geom.sizeBytes == 0)
        throw ConfigRejected(
            {ConfigErrorKind::ZeroGeometry, "cache",
             "blockBytes, assoc and sizeBytes must all be nonzero"});
    const uint64_t setBytes =
        static_cast<uint64_t>(geom.blockBytes) * geom.assoc;
    if (geom.sizeBytes < setBytes
        || geom.sizeBytes % setBytes != 0)
        throw ConfigRejected(
            {ConfigErrorKind::BadGeometry, "cache",
             "sizeBytes (" + std::to_string(geom.sizeBytes)
                 + ") must be a nonzero multiple of blockBytes*assoc ("
                 + std::to_string(setBytes) + ")"});
    numSets = geom.sizeBytes / (geom.blockBytes * geom.assoc);
    lines.resize(static_cast<size_t>(numSets) * assoc);
    if (blockBytes && (blockBytes & (blockBytes - 1)) == 0) {
        blockShift = 0;
        while ((1u << blockShift) != blockBytes)
            blockShift++;
    }
    setsPow2 = numSets && (numSets & (numSets - 1)) == 0;
}

bool
Cache::lookup(uint64_t block)
{
    lastValid = true;
    lastBlock = block;
    uint32_t set = setOf(block);
    Line *ways = &lines[static_cast<size_t>(set) * assoc];
    stamp++;
    for (uint32_t w = 0; w < assoc; w++) {
        if (ways[w].valid && ways[w].tag == block) {
            ways[w].lruStamp = stamp;
            return true;
        }
    }
    stat.misses++;
    // Fill the LRU way.
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
    return false;
}

void
Cache::prefetch(uint64_t addr)
{
    if (contains(addr))
        return;
    lastValid = false;
    uint64_t block = blockOf(addr);
    uint32_t set = setOf(block);
    Line *ways = &lines[static_cast<size_t>(set) * assoc];
    stamp++;
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

Tlb::Tlb(unsigned entries, unsigned assoc, unsigned page_bytes)
    : backing(CacheGeometry{entries * page_bytes, assoc, page_bytes})
{
}

MemoryHierarchy::MemoryHierarchy(const MachineConfig &cfg)
    : cfg(cfg), l1(cfg.l1d), l2(cfg.l2),
      tlb(cfg.dtlbEntries, cfg.dtlbAssoc, cfg.pageBytes)
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
