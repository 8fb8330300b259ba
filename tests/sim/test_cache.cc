/** @file Unit tests for the cache, TLB and SBox-cache models. */

#include <gtest/gtest.h>

#include "sim/cache.hh"

namespace
{

using namespace cryptarch::sim;

TEST(Cache, ColdMissThenHit)
{
    Cache c(CacheGeometry{1024, 2, 32});
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x11F)); // same 32-byte block
    EXPECT_FALSE(c.access(0x120)); // next block
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruReplacement)
{
    // 2-way, 16 sets of 32B: addresses 32*16 apart collide.
    Cache c(CacheGeometry{1024, 2, 32});
    const uint64_t stride = 32 * 16;
    c.access(0 * stride);
    c.access(1 * stride);
    EXPECT_TRUE(c.access(0 * stride));  // both resident
    c.access(2 * stride);               // evicts LRU (way with 1*stride)
    EXPECT_TRUE(c.access(0 * stride));
    EXPECT_FALSE(c.access(1 * stride)); // was evicted
}

TEST(Cache, PrefetchFillsWithoutCounting)
{
    Cache c(CacheGeometry{1024, 2, 32});
    c.prefetch(0x200);
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_TRUE(c.contains(0x200));
    EXPECT_TRUE(c.access(0x200));
    EXPECT_EQ(c.stats().misses, 0u);
}

TEST(Cache, RepeatedBlockMissesAfterPrefetchEvictsIt)
{
    // Direct-mapped, 32 sets of 32B: a prefetch into the set of the
    // latest access evicts that block, so repeating it must miss.
    Cache c(CacheGeometry{1024, 1, 32});
    EXPECT_FALSE(c.access(0x40));
    EXPECT_TRUE(c.access(0x44));
    c.prefetch(0x40 + 1024);
    EXPECT_FALSE(c.access(0x48));
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Tlb, PageGranularity)
{
    // MemoryHierarchy's DTLB geometry: 4 entries of one 8 KB page each.
    Cache tlb(CacheGeometry{4 * 8192, 4, 8192});
    EXPECT_FALSE(tlb.access(0));
    EXPECT_TRUE(tlb.access(8191));  // same page
    EXPECT_FALSE(tlb.access(8192)); // next page
}

TEST(MemoryHierarchy, LatenciesTiered)
{
    MachineConfig cfg = MachineConfig::fourWide();
    cfg.nextLinePrefetch = false;
    MemoryHierarchy mem(cfg);
    // Cold: TLB miss + L1 miss + L2 miss.
    unsigned cold = mem.access(0x4000);
    EXPECT_EQ(cold, cfg.dtlbMissLat + cfg.memLat);
    // Warm: all hits, no extra latency.
    EXPECT_EQ(mem.access(0x4000), 0u);
}

TEST(MemoryHierarchy, NextLinePrefetchHidesSequentialMisses)
{
    MachineConfig cfg = MachineConfig::fourWide();
    MemoryHierarchy mem(cfg);
    mem.access(0x4000); // cold; prefetches 0x4020
    EXPECT_EQ(mem.access(0x4020), 0u) << "next line was prefetched";
}

TEST(MemoryHierarchy, PerfectMemoryIsFree)
{
    MachineConfig cfg = MachineConfig::dataflow();
    MemoryHierarchy mem(cfg);
    EXPECT_EQ(mem.access(0x123456), 0u);
}

TEST(SboxCache, SectorFillAndHit)
{
    SboxCache sc;
    EXPECT_FALSE(sc.access(0x1000, 0));   // cold sector
    EXPECT_TRUE(sc.access(0x1000, 4));    // same 32B sector
    EXPECT_TRUE(sc.access(0x1000, 31));
    EXPECT_FALSE(sc.access(0x1000, 32));  // next sector
    EXPECT_TRUE(sc.access(0x1000, 60));
}

TEST(SboxCache, TagChangeFlushes)
{
    SboxCache sc;
    sc.access(0x1000, 0);
    EXPECT_TRUE(sc.access(0x1000, 0));
    EXPECT_FALSE(sc.access(0x2000, 0)); // different table: flush
    EXPECT_FALSE(sc.access(0x1000, 0)); // original gone
}

TEST(SboxCache, SyncInvalidatesSectors)
{
    SboxCache sc;
    sc.access(0x1000, 0);
    sc.access(0x1000, 64);
    sc.sync();
    EXPECT_FALSE(sc.access(0x1000, 0));
    EXPECT_FALSE(sc.access(0x1000, 64));
}

} // namespace
