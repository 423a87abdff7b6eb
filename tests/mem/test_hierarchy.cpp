/** @file Tests for the three-level memory hierarchy. */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace osp
{
namespace
{

HierarchyParams
tinyParams()
{
    HierarchyParams p;
    p.l1i = CacheParams{"l1i", 1024, 2, 64, ReplPolicy::Lru};
    p.l1d = CacheParams{"l1d", 1024, 2, 64, ReplPolicy::Lru};
    p.l2 = CacheParams{"l2", 8192, 4, 64, ReplPolicy::Lru};
    return p;
}

TEST(Hierarchy, HitLatencies)
{
    MemoryHierarchy h(tinyParams());
    // Cold: L1 miss, L2 miss -> memory.
    auto cold = h.access(0x1000, AccessType::Load, Owner::App, 0);
    EXPECT_TRUE(cold.l1Miss);
    EXPECT_TRUE(cold.l2Miss);
    EXPECT_GE(cold.latency, h.params().memLatency);

    // Warm: L1 hit at the configured L1D latency.
    auto warm = h.access(0x1000, AccessType::Load, Owner::App, 100);
    EXPECT_FALSE(warm.l1Miss);
    EXPECT_EQ(warm.latency, h.params().l1dHitLatency);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy h(tinyParams());
    // Fill L1D (1KB = 16 lines over 8 sets x 2 ways) well past
    // capacity; early lines fall out of L1 but stay in L2 (8KB).
    for (Addr a = 0; a < 4096; a += 64)
        h.access(a, AccessType::Load, Owner::App, 0);
    auto res = h.access(0, AccessType::Load, Owner::App, 10000);
    EXPECT_TRUE(res.l1Miss);
    EXPECT_FALSE(res.l2Miss);
    EXPECT_EQ(res.latency,
              h.params().l1dHitLatency + h.params().l2HitLatency);
}

TEST(Hierarchy, InstFetchUsesL1I)
{
    MemoryHierarchy h(tinyParams());
    h.access(0x2000, AccessType::InstFetch, Owner::App, 0);
    EXPECT_EQ(h.l1i().stats().totalAccesses(), 1u);
    EXPECT_EQ(h.l1d().stats().totalAccesses(), 0u);
    auto hit = h.access(0x2000, AccessType::InstFetch, Owner::App, 1);
    EXPECT_FALSE(hit.l1Miss);
    EXPECT_EQ(hit.latency, h.params().l1iHitLatency);
}

TEST(Hierarchy, L2IsUnified)
{
    MemoryHierarchy h(tinyParams());
    h.access(0x3000, AccessType::InstFetch, Owner::App, 0);
    // A data access to the same line: L1D miss but L2 hit.
    auto res = h.access(0x3000, AccessType::Load, Owner::App, 10);
    EXPECT_TRUE(res.l1Miss);
    EXPECT_FALSE(res.l2Miss);
}

TEST(Hierarchy, BusQueueingDelaysBackToBackMisses)
{
    MemoryHierarchy h(tinyParams());
    auto first = h.access(0x10000, AccessType::Load, Owner::App, 0);
    auto second = h.access(0x20000, AccessType::Load, Owner::App, 0);
    // The second miss queues behind the first line transfer.
    EXPECT_GT(second.latency, first.latency);
    EXPECT_GE(second.latency,
              first.latency + h.params().busCyclesPerLine -
                  (h.params().l1dHitLatency +
                   h.params().l2HitLatency));
}

TEST(Hierarchy, BusClearsWithTime)
{
    MemoryHierarchy h(tinyParams());
    auto first = h.access(0x10000, AccessType::Load, Owner::App, 0);
    // Far in the future: no queueing.
    auto later =
        h.access(0x20000, AccessType::Load, Owner::App, 1000000);
    EXPECT_EQ(later.latency, first.latency);
}

TEST(Hierarchy, CountsSnapshotDelta)
{
    MemoryHierarchy h(tinyParams());
    h.access(0x0, AccessType::Load, Owner::App, 0);
    HierarchyCounts before = h.counts();
    h.access(0x40, AccessType::Load, Owner::Os, 0);
    h.access(0x40, AccessType::Load, Owner::Os, 0);
    HierarchyCounts delta = h.counts() - before;
    EXPECT_EQ(delta.l1dAccesses, 2u);
    EXPECT_EQ(delta.l1dMisses, 1u);
    EXPECT_EQ(delta.l2Accesses, 1u);
}

TEST(Hierarchy, PerOwnerCounts)
{
    MemoryHierarchy h(tinyParams());
    h.access(0x0, AccessType::Load, Owner::App, 0);
    h.access(0x1000, AccessType::Load, Owner::Os, 0);
    auto app = h.countsFor(Owner::App);
    auto os = h.countsFor(Owner::Os);
    EXPECT_EQ(app.l1dAccesses, 1u);
    EXPECT_EQ(os.l1dAccesses, 1u);
    EXPECT_EQ(app.l1dMisses, 1u);
}

TEST(Hierarchy, AccessL1ReportsHitOrMiss)
{
    MemoryHierarchy h(tinyParams());
    auto cold = h.accessL1(0x5000, AccessType::Load, Owner::App);
    EXPECT_TRUE(cold.l1Miss);
    EXPECT_TRUE(cold.tlbMiss);
    EXPECT_EQ(cold.latency,
              h.params().tlbMissPenalty + h.params().l1dHitLatency);
    // The L1 lookup allocates: the L2 has not been asked yet.
    EXPECT_EQ(h.counts().l2Accesses, 0u);
    auto warm = h.accessL1(0x5000, AccessType::Load, Owner::App);
    EXPECT_FALSE(warm.l1Miss);
    EXPECT_FALSE(warm.tlbMiss);
    EXPECT_EQ(warm.latency, h.params().l1dHitLatency);
    // Instruction fetches look up the other L1.
    auto fetch = h.accessL1(0x5000, AccessType::InstFetch, Owner::App);
    EXPECT_TRUE(fetch.l1Miss);
}

TEST(Hierarchy, InstallLineResidency)
{
    MemoryHierarchy h(tinyParams());
    std::vector<Addr> data{0x7000};
    auto fills = h.installFootprint(data, 1, {}, 0);
    EXPECT_EQ(fills.l1d, 1u);
    EXPECT_EQ(fills.l1i, 0u);
    EXPECT_EQ(fills.l2, 1u);
    // Installs do not perturb demand statistics.
    EXPECT_EQ(h.counts().l1dAccesses, 0u);
    // But the line is resident: a demand access hits.
    auto res = h.access(0x7000, AccessType::Load, Owner::App, 0);
    EXPECT_FALSE(res.l1Miss);
}

TEST(Hierarchy, FlushAllDropsContents)
{
    MemoryHierarchy h(tinyParams());
    h.access(0x0, AccessType::Load, Owner::App, 0);
    h.flushAll();
    auto res = h.access(0x0, AccessType::Load, Owner::App, 0);
    EXPECT_TRUE(res.l1Miss);
    EXPECT_TRUE(res.l2Miss);
}

TEST(Hierarchy, DefaultParamsMatchPaper)
{
    HierarchyParams p;
    EXPECT_EQ(p.l1i.sizeBytes, 16u * 1024);
    EXPECT_EQ(p.l1i.assoc, 2u);
    EXPECT_EQ(p.l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(p.l1d.assoc, 4u);
    EXPECT_EQ(p.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(p.l2.assoc, 8u);
    EXPECT_EQ(p.l1d.lineBytes, 64u);
    EXPECT_EQ(p.l1dHitLatency, 2u);
    EXPECT_EQ(p.l2HitLatency, 8u);
    EXPECT_EQ(p.memLatency, 300u);
}

TEST(HierarchyTlb, MissPaysWalkPenaltyOncePerPage)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 8;
    p.tlbMissPenalty = 30;
    MemoryHierarchy h(p);
    auto first = h.access(0x8000, AccessType::Load, Owner::App, 0);
    EXPECT_TRUE(first.tlbMiss);
    // Same page, different line: TLB hit now.
    auto second =
        h.access(0x8040, AccessType::Load, Owner::App, 10000);
    EXPECT_FALSE(second.tlbMiss);
    EXPECT_EQ(first.latency - second.latency,
              p.tlbMissPenalty);
}

TEST(HierarchyTlb, SeparateInstructionAndDataTlbs)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 8;
    MemoryHierarchy h(p);
    h.access(0x8000, AccessType::Load, Owner::App, 0);
    // Fetching from the same page still misses the I-TLB.
    auto fetch =
        h.access(0x8000, AccessType::InstFetch, Owner::App, 0);
    EXPECT_TRUE(fetch.tlbMiss);
    EXPECT_EQ(h.itlb()->stats().totalMisses(), 1u);
    EXPECT_EQ(h.dtlb()->stats().totalMisses(), 1u);
}

TEST(HierarchyTlb, CapacityEviction)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 4;
    p.tlbAssoc = 4;  // one set
    MemoryHierarchy h(p);
    for (Addr page = 0; page < 5; ++page)
        h.access(page * 4096, AccessType::Load, Owner::App, 0);
    // Page 0 was evicted by page 4.
    auto res = h.access(0, AccessType::Load, Owner::App, 0);
    EXPECT_TRUE(res.tlbMiss);
}

TEST(HierarchyTlb, DisabledWhenZeroEntries)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 0;
    MemoryHierarchy h(p);
    EXPECT_EQ(h.itlb(), nullptr);
    EXPECT_EQ(h.dtlb(), nullptr);
    auto res = h.access(0x8000, AccessType::Load, Owner::App, 0);
    EXPECT_FALSE(res.tlbMiss);
}

TEST(HierarchyTlb, FootprintInstallWarmsTlb)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 8;
    MemoryHierarchy h(p);
    std::vector<Addr> data{0x9000};
    std::vector<Addr> code{0xa000};
    h.installFootprint(data, 1, code, 1);
    auto res = h.access(0x9000, AccessType::Load, Owner::App, 0);
    EXPECT_FALSE(res.tlbMiss);
    auto fetch =
        h.access(0xa000, AccessType::InstFetch, Owner::App, 0);
    EXPECT_FALSE(fetch.tlbMiss);
}

TEST(HierarchyPrefetch, NextLinePrefetchFillsL2)
{
    HierarchyParams p = tinyParams();
    p.l2NextLinePrefetch = true;
    MemoryHierarchy h(p);
    h.access(0x10000, AccessType::Load, Owner::App, 0);
    // The next line was prefetched: L1 misses but L2 hits.
    auto res =
        h.access(0x10040, AccessType::Load, Owner::App, 10000);
    EXPECT_TRUE(res.l1Miss);
    EXPECT_FALSE(res.l2Miss);
}

TEST(HierarchyPrefetch, StreamingMissesHalveWithPrefetch)
{
    HierarchyParams base = tinyParams();
    HierarchyParams pf = tinyParams();
    pf.l2NextLinePrefetch = true;
    MemoryHierarchy plain(base);
    MemoryHierarchy pref(pf);
    for (Addr a = 0x100000; a < 0x140000; a += 64) {
        plain.access(a, AccessType::Load, Owner::App, 0);
        pref.access(a, AccessType::Load, Owner::App, 0);
    }
    EXPECT_LT(pref.counts().l2Misses,
              plain.counts().l2Misses / 2 + 16);
}

} // namespace
} // namespace osp
