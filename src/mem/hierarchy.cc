#include "hierarchy.hh"

#include <algorithm>
#include <bit>

namespace osp
{

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : params_(params),
      l1i_(params.l1i, params.seed * 3 + 1),
      l1d_(params.l1d, params.seed * 3 + 2),
      l2_(params.l2, params.seed * 3 + 3)
{
    if (params_.tlbEntries) {
        // A TLB is a set-associative cache of 4KB pages.
        CacheParams tlb;
        tlb.sizeBytes =
            static_cast<std::uint64_t>(params_.tlbEntries) * 4096;
        tlb.assoc = params_.tlbAssoc;
        tlb.lineBytes = 4096;
        tlb.name = "itlb";
        itlb_ = std::make_unique<Cache>(tlb, params.seed * 3 + 4);
        tlb.name = "dtlb";
        dtlb_ = std::make_unique<Cache>(tlb, params.seed * 3 + 5);
    }
}

AccessOutcome
MemoryHierarchy::accessBeyondL1(Addr addr, bool is_write,
                                Owner owner, Cycles now,
                                AccessOutcome out)
{
    // L1 dirty writeback occupies the bus toward L2 only in spirit;
    // the L1<->L2 link is not a modeled resource, so nothing to add.

    auto l2_res = l2_.access(addr, is_write, owner);
    out.latency += params_.l2HitLatency;
    if (l2_res.hit)
        return out;

    out.l2Miss = true;
    // Memory access: latency plus bus occupancy/queueing.
    Cycles request_at = now + out.latency;
    Cycles bus_start = std::max(request_at, busFreeAt);
    busFreeAt = bus_start + params_.busCyclesPerLine;
    Cycles queueing = bus_start - request_at;
    out.latency += queueing + params_.memLatency;
    if (l2_res.writeback) {
        // Posted writeback: occupies the bus, does not stall the load.
        busFreeAt += params_.busCyclesPerLine;
    }
    if (params_.l2NextLinePrefetch) {
        // Next-line prefetch: silently fill line+1 into the L2 and
        // account its bus occupancy (it never stalls the demand
        // load).
        if (l2_.install(addr + l2_.lineBytes(), owner))
            busFreeAt += params_.busCyclesPerLine;
    }
    return out;
}

std::uint64_t
MemoryHierarchy::pollute(std::uint64_t l1i_lines,
                         std::uint64_t l1d_lines,
                         std::uint64_t l2_lines,
                         Cache::PollutionMode mode)
{
    std::uint64_t affected = 0;
    affected += l1i_.pollute(l1i_lines, mode);
    affected += l1d_.pollute(l1d_lines, mode);
    affected += l2_.pollute(l2_lines, mode);
    return affected;
}

namespace
{

/**
 * Leave @p tlb as @p want per-slot installs of @p sample, cycled
 * from slot 0, would (see installFootprint). The last touch of each
 * slot lies in the final min(want, n) touches, so a backward scan
 * from the last one meets every page in last-touch order; each set
 * keeps its first `assoc` distinct pages, which are then installed
 * oldest first. Sets are independent, so their order does not
 * matter.
 */
void
replayTlb(Cache &tlb, const std::vector<Addr> &sample,
          std::uint64_t want)
{
    const std::size_t n = sample.size();
    if (n == 0 || want == 0)
        return;
    const std::uint32_t assoc = tlb.assoc();
    const std::uint32_t set_mask = tlb.numSets() - 1;
    const int shift = std::countr_zero(tlb.lineBytes());
    const std::size_t entries =
        static_cast<std::size_t>(tlb.numSets()) * assoc;
    // The pages kept per set, most recent first, and how many.
    std::vector<Addr> pages(entries);
    std::vector<std::uint32_t> count(tlb.numSets(), 0);

    std::size_t pos = static_cast<std::size_t>((want - 1) % n);
    std::uint64_t span = std::min<std::uint64_t>(want, n);
    std::size_t kept = 0;
    for (std::uint64_t i = 0; i < span && kept < entries; ++i) {
        Addr page = sample[pos] >> shift;
        pos = pos ? pos - 1 : n - 1;
        std::uint32_t set = static_cast<std::uint32_t>(page) & set_mask;
        Addr *ways = &pages[static_cast<std::size_t>(set) * assoc];
        std::uint32_t &c = count[set];
        if (c == assoc || std::find(ways, ways + c, page) != ways + c)
            continue;
        ways[c++] = page;
        ++kept;
    }
    for (std::uint32_t set = 0; set < tlb.numSets(); ++set) {
        const Addr *ways = &pages[static_cast<std::size_t>(set) * assoc];
        for (std::uint32_t w = count[set]; w-- > 0;)
            tlb.install(ways[w] << shift, Owner::Os);
    }
}

} // namespace

MemoryHierarchy::FootprintFills
MemoryHierarchy::installFootprint(const std::vector<Addr> &data,
                                  std::uint64_t data_want,
                                  const std::vector<Addr> &code,
                                  std::uint64_t code_want)
{
    FootprintFills fills;
    // Cycle through a sample for @p want installs.
    auto install = [&](const std::vector<Addr> &sample,
                       std::uint64_t want, Cache &l1,
                       std::uint64_t &l1_fills) {
        if (sample.empty())
            return;
        std::size_t k = 0;
        for (std::uint64_t i = 0; i < want; ++i) {
            l1_fills += l1.install(sample[k], Owner::Os);
            fills.l2 += l2_.install(sample[k], Owner::Os);
            if (++k == sample.size())
                k = 0;
        }
    };
    install(data, data_want, l1d_, fills.l1d);
    install(code, code_want, l1i_, fills.l1i);
    // Footprint pollution displaces TLB entries too.
    if (dtlb_)
        replayTlb(*dtlb_, data, data_want);
    if (itlb_)
        replayTlb(*itlb_, code, code_want);
    return fills;
}

HierarchyCounts
MemoryHierarchy::counts() const
{
    HierarchyCounts c;
    c.l1iAccesses = l1i_.stats().totalAccesses();
    c.l1iMisses = l1i_.stats().totalMisses();
    c.l1dAccesses = l1d_.stats().totalAccesses();
    c.l1dMisses = l1d_.stats().totalMisses();
    c.l2Accesses = l2_.stats().totalAccesses();
    c.l2Misses = l2_.stats().totalMisses();
    return c;
}

HierarchyCounts
MemoryHierarchy::countsFor(Owner owner) const
{
    auto i = static_cast<int>(owner);
    HierarchyCounts c;
    c.l1iAccesses = l1i_.stats().accesses[i];
    c.l1iMisses = l1i_.stats().misses[i];
    c.l1dAccesses = l1d_.stats().accesses[i];
    c.l1dMisses = l1d_.stats().misses[i];
    c.l2Accesses = l2_.stats().accesses[i];
    c.l2Misses = l2_.stats().misses[i];
    return c;
}

void
MemoryHierarchy::flushAll()
{
    l1i_.flush();
    l1d_.flush();
    l2_.flush();
    if (itlb_)
        itlb_->flush();
    if (dtlb_)
        dtlb_->flush();
    busFreeAt = 0;
}

void
MemoryHierarchy::resetStats()
{
    l1i_.resetStats();
    l1d_.resetStats();
    l2_.resetStats();
    if (itlb_)
        itlb_->resetStats();
    if (dtlb_)
        dtlb_->resetStats();
}

} // namespace osp
