/**
 * @file Exactness tests for the split access path and the footprint
 * install of the memory hierarchy.
 *
 * Both compare MemoryHierarchy against RefHierarchy below: the same
 * five caches and bus clock driven the straightforward way, with the
 * whole access looked up in one go and every footprint slot
 * installed into its L1, the L2 and its TLB one after another.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "mem/hierarchy.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

/** Reference model: one-go access() and per-slot installs. */
class RefHierarchy
{
  public:
    explicit RefHierarchy(const HierarchyParams &p)
        : p_(p), l1i(p.l1i, p.seed * 3 + 1),
          l1d(p.l1d, p.seed * 3 + 2), l2(p.l2, p.seed * 3 + 3)
    {
        if (p.tlbEntries) {
            CacheParams tlb{"tlb",
                            static_cast<std::uint64_t>(p.tlbEntries) *
                                4096,
                            p.tlbAssoc, 4096, ReplPolicy::Lru};
            itlb.emplace(tlb, p.seed * 3 + 4);
            dtlb.emplace(tlb, p.seed * 3 + 5);
        }
    }

    AccessOutcome
    access(Addr addr, AccessType type, Owner owner, Cycles now)
    {
        AccessOutcome out;
        bool is_fetch = type == AccessType::InstFetch;
        bool is_write = type == AccessType::Store;
        std::optional<Cache> &tlb = is_fetch ? itlb : dtlb;
        if (tlb && !tlb->access(addr, false, owner).hit) {
            out.tlbMiss = true;
            out.latency += p_.tlbMissPenalty;
        }
        out.latency += is_fetch ? p_.l1iHitLatency : p_.l1dHitLatency;
        if ((is_fetch ? l1i : l1d).access(addr, is_write, owner).hit)
            return out;
        out.l1Miss = true;
        auto l2_res = l2.access(addr, is_write, owner);
        out.latency += p_.l2HitLatency;
        if (l2_res.hit)
            return out;
        out.l2Miss = true;
        Cycles request_at = now + out.latency;
        Cycles bus_start = std::max(request_at, busFreeAt);
        busFreeAt = bus_start + p_.busCyclesPerLine;
        out.latency += bus_start - request_at + p_.memLatency;
        if (l2_res.writeback)
            busFreeAt += p_.busCyclesPerLine;
        if (p_.l2NextLinePrefetch &&
            l2.install(addr + l2.lineBytes(), owner))
            busFreeAt += p_.busCyclesPerLine;
        return out;
    }

    /** One footprint slot: its L1, the L2, then its TLB. */
    void
    installSlot(Addr addr, bool is_code,
                MemoryHierarchy::FootprintFills &fills)
    {
        (is_code ? fills.l1i : fills.l1d) +=
            (is_code ? l1i : l1d).install(addr, Owner::Os);
        fills.l2 += l2.install(addr, Owner::Os);
        std::optional<Cache> &tlb = is_code ? itlb : dtlb;
        if (tlb)
            tlb->install(addr, Owner::Os);
    }

    HierarchyParams p_;
    Cache l1i;
    Cache l1d;
    Cache l2;
    std::optional<Cache> itlb;
    std::optional<Cache> dtlb;
    Cycles busFreeAt = 0;
};

HierarchyParams
smallParams(bool tlb, bool prefetch)
{
    HierarchyParams p;
    p.l1i = CacheParams{"l1i", 1024, 2, 64, ReplPolicy::Lru};
    p.l1d = CacheParams{"l1d", 1024, 2, 64, ReplPolicy::Lru};
    p.l2 = CacheParams{"l2", 8192, 4, 64, ReplPolicy::Lru};
    p.tlbEntries = tlb ? 16 : 0;
    p.tlbAssoc = 4;
    p.l2NextLinePrefetch = prefetch;
    return p;
}

void
expectSameOutcome(const AccessOutcome &got, const AccessOutcome &want)
{
    EXPECT_EQ(got.latency, want.latency);
    EXPECT_EQ(got.l1Miss, want.l1Miss);
    EXPECT_EQ(got.l2Miss, want.l2Miss);
    EXPECT_EQ(got.tlbMiss, want.tlbMiss);
}

void
expectSameStats(const Cache &got, const Cache &want)
{
    SCOPED_TRACE(want.params().name);
    for (int o = 0; o < numOwners; ++o) {
        EXPECT_EQ(got.stats().accesses[o], want.stats().accesses[o]);
        EXPECT_EQ(got.stats().misses[o], want.stats().misses[o]);
    }
    EXPECT_EQ(got.stats().evictions, want.stats().evictions);
    EXPECT_EQ(got.stats().writebacks, want.stats().writebacks);
    EXPECT_EQ(got.stats().crossEvictions, want.stats().crossEvictions);
}

TEST(HierarchyExact, AccessL1ThenBeyondMatchesOneGoAccess)
{
    for (bool tlb : {false, true}) {
        for (bool prefetch : {false, true}) {
            SCOPED_TRACE(testing::Message() << "tlb " << tlb
                                            << " prefetch "
                                            << prefetch);
            HierarchyParams p = smallParams(tlb, prefetch);
            MemoryHierarchy split(p);
            MemoryHierarchy whole(p);
            RefHierarchy ref(p);
            Pcg32 rng(tlb * 2 + prefetch + 7);
            Cycles now = 0;
            std::uint64_t queued = 0;
            for (int i = 0; i < 20000; ++i) {
                auto type = static_cast<AccessType>(rng.range(3));
                Owner owner =
                    rng.range(3) == 0 ? Owner::Os : Owner::App;
                // Hot lines that mostly hit the L1, a 64KB region
                // that mostly hits the L2 and a 1MB one that goes
                // to memory; bursts of misses queue on the bus.
                std::uint32_t r = rng.range(10);
                Addr addr = r < 5   ? 64 * rng.range(16)
                            : r < 8 ? 64 * rng.range(1024)
                                    : 64 * rng.range(16384);
                now += rng.range(4) == 0 ? rng.range(400) : 0;

                AccessOutcome want = ref.access(addr, type, owner, now);
                // As a CPU model does it: the L1 first, and the rest
                // (with its own `now`) only on a miss.
                AccessOutcome got = split.accessL1(addr, type, owner);
                if (got.l1Miss) {
                    got = split.accessBeyondL1(
                        addr, type == AccessType::Store, owner, now,
                        got);
                }
                expectSameOutcome(got, want);
                expectSameOutcome(whole.access(addr, type, owner, now),
                                  want);
                Cycles unqueued = p.l1dHitLatency + p.l2HitLatency +
                                  p.memLatency +
                                  (want.tlbMiss ? p.tlbMissPenalty : 0);
                queued += want.l2Miss && want.latency > unqueued;
                if (HasFailure())
                    return;
            }
            EXPECT_GT(queued, 100u);  // the bus really queued
            for (const MemoryHierarchy *h : {&split, &whole}) {
                expectSameStats(h->l1i(), ref.l1i);
                expectSameStats(h->l1d(), ref.l1d);
                expectSameStats(h->l2(), ref.l2);
                if (tlb) {
                    expectSameStats(*h->itlb(), *ref.itlb);
                    expectSameStats(*h->dtlb(), *ref.dtlb);
                }
            }
        }
    }
}

/** One installFootprint scenario; TLBs have 4 sets of 4 ways. */
struct FootprintCase
{
    const char *name;
    std::size_t n;          //!< slots per sample
    std::uint64_t want;     //!< data installs (code gets want / 2 + 1)
    std::uint32_t pages;    //!< the samples draw from this many pages
    int prewarm;            //!< App accesses before the install
};

TEST(HierarchyExact, FootprintTlbReplayMatchesPerSlotInstalls)
{
    const FootprintCase cases[] = {
        {"want below n", 300, 100, 40, 60},
        {"a few installs of a large sample", 300, 6, 40, 60},
        {"want equals n", 300, 300, 40, 60},
        {"want cycles past n", 300, 1000, 40, 60},
        {"few pages per set", 50, 120, 6, 60},
        {"cold TLB", 50, 120, 6, 0},
        {"partly invalid ways", 80, 200, 24, 5},
        {"one slot", 1, 9, 1, 60},
    };
    std::uint64_t seed = 1;
    for (const FootprintCase &c : cases) {
        SCOPED_TRACE(c.name);
        HierarchyParams p = smallParams(true, false);
        MemoryHierarchy h(p);
        RefHierarchy ref(p);
        Pcg32 rng(seed++);
        auto page_addr = [&](std::uint32_t pages) {
            return 4096 * static_cast<Addr>(rng.range(pages)) +
                   64 * rng.range(64);
        };
        // Some of these pages are in the samples too: those are
        // resident as App-owned when the install starts.
        for (int i = 0; i < c.prewarm; ++i) {
            Addr a = page_addr(c.pages + 8);
            auto type = i % 2 ? AccessType::Load
                              : AccessType::InstFetch;
            h.access(a, type, Owner::App, 0);
            ref.access(a, type, Owner::App, 0);
        }
        std::vector<Addr> data;
        std::vector<Addr> code;
        for (std::size_t i = 0; i < c.n; ++i) {
            data.push_back(page_addr(c.pages));
            code.push_back(page_addr(c.pages));
        }
        std::uint64_t code_want = c.want / 2 + 1;

        auto got = h.installFootprint(data, c.want, code, code_want);
        MemoryHierarchy::FootprintFills want;
        for (std::uint64_t i = 0; i < c.want; ++i)
            ref.installSlot(data[i % c.n], false, want);
        for (std::uint64_t i = 0; i < code_want; ++i)
            ref.installSlot(code[i % c.n], true, want);
        EXPECT_EQ(got.l1d, want.l1d);
        EXPECT_EQ(got.l1i, want.l1i);
        EXPECT_EQ(got.l2, want.l2);

        // Which pages are resident, and their LRU order, show in the
        // TLB misses of a follow-up stream that keeps evicting.
        std::uint64_t tlb_misses = 0;
        for (int i = 0; i < 400; ++i) {
            Addr a = page_addr(c.pages + 24);
            auto type = i % 3 ? AccessType::Load
                              : AccessType::InstFetch;
            AccessOutcome r = ref.access(a, type, Owner::App, 0);
            expectSameOutcome(h.access(a, type, Owner::App, 0), r);
            tlb_misses += r.tlbMiss;
            if (HasFailure())
                return;
        }
        EXPECT_GT(tlb_misses, 0u);
    }
}

} // namespace
} // namespace osp
