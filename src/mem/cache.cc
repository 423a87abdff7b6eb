#include "cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace osp
{

namespace
{

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Exact log2 of a power of two (C++20 countr_zero, no loop). */
std::uint32_t
log2u(std::uint64_t x)
{
    return static_cast<std::uint32_t>(std::countr_zero(x));
}

} // namespace

Cache::Cache(const CacheParams &params, std::uint64_t seed)
    : params_(params), rng(seed, 0x9e3779b97f4a7c15ULL)
{
    if (!isPowerOfTwo(params_.lineBytes) || params_.lineBytes < 2) {
        osp_fatal(params_.name,
                  ": line size must be a power of two >= 2");
    }
    if (params_.assoc == 0)
        osp_fatal(params_.name, ": associativity must be >= 1");
    if (params_.sizeBytes == 0 ||
        params_.sizeBytes % (static_cast<std::uint64_t>(
                                 params_.lineBytes) *
                             params_.assoc) != 0) {
        osp_fatal(params_.name,
                  ": size must be a positive multiple of line size"
                  " times associativity");
    }
    std::uint64_t sets =
        params_.sizeBytes /
        (static_cast<std::uint64_t>(params_.lineBytes) *
         params_.assoc);
    if (!isPowerOfTwo(sets))
        osp_fatal(params_.name, ": number of sets must be a power of"
                                " two, got ", sets);
    numSets_ = static_cast<std::uint32_t>(sets);
    lineShift = log2u(params_.lineBytes);
    std::size_t n = static_cast<std::size_t>(numSets_) * params_.assoc;
    lines.resize(n);
    tags_.assign(n, kInvalidTag);
    mruWay_.assign(numSets_, 0);
}

std::uint32_t
Cache::victimWay(std::uint32_t set)
{
    std::size_t base = static_cast<std::size_t>(set) * params_.assoc;
    // Invalid way first.
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (tags_[base + w] == kInvalidTag)
            return w;
    }
    if (params_.repl == ReplPolicy::Random)
        return rng.range(params_.assoc);
    // The oldest way, chosen with conditional moves: which way that
    // is depends on the data, so as a branch it mispredicts.
    const Line *ln = &lines[base];
    std::uint32_t victim = 0;
    std::uint64_t oldest = ln[0].lruStamp;
    for (std::uint32_t w = 1; w < params_.assoc; ++w) {
        std::uint64_t s = ln[w].lruStamp;
        bool older = s < oldest;
        oldest = older ? s : oldest;
        victim = older ? w : victim;
    }
    return victim;
}

Cache::AccessResult
Cache::accessSlow(std::uint32_t set, Addr tag, std::size_t base,
                  bool is_write, Owner owner)
{
    AccessResult result;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (tags_[base + w] == tag) {
            Line &line = lines[base + w];
            result.hit = true;
            line.lruStamp = lruClock;
            if (is_write)
                line.dirty = true;
            mruWay_[set] = w;
            return result;
        }
    }

    // Miss: allocate (write-allocate policy), evicting if needed.
    stats_.misses[static_cast<int>(owner)] += 1;
    std::uint32_t way = victimWay(set);
    Line &line = lines[base + way];
    if (line.valid) {
        stats_.evictions += 1;
        if (line.dirty) {
            stats_.writebacks += 1;
            result.writeback = true;
        }
        if (line.owner == Owner::App && owner == Owner::Os) {
            stats_.crossEvictions += 1;
            result.crossEviction = true;
        }
    }
    retag(base + way, true, owner);
    tags_[base + way] = tag;
    line.dirty = is_write;
    line.lruStamp = lruClock;
    mruWay_[set] = way;
    return result;
}

bool
Cache::installSlow(std::uint32_t set, Addr tag, std::size_t base,
                   Owner owner)
{
    const std::uint32_t assoc = params_.assoc;
    std::uint32_t invalid = assoc;
    std::uint32_t lru = 0;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (std::uint32_t w = 0; w < assoc; ++w) {
        Addr t = tags_[base + w];
        if (t == tag) {
            lines[base + w].lruStamp = lruClock;
            mruWay_[set] = w;
            return false;
        }
        bool first_invalid = t == kInvalidTag && invalid == assoc;
        invalid = first_invalid ? w : invalid;
        std::uint64_t s = lines[base + w].lruStamp;
        bool older = s < oldest;
        oldest = older ? s : oldest;
        lru = older ? w : lru;
    }
    std::uint32_t way = invalid;
    if (way == assoc) {
        way = params_.repl == ReplPolicy::Random ? rng.range(assoc)
                                                 : lru;
    }
    Line &line = lines[base + way];
    if (line.valid)
        stats_.injectedEvictions += 1;
    stats_.injectedFills += 1;
    retag(base + way, true, owner);
    tags_[base + way] = tag;
    line.dirty = false;
    line.lruStamp = lruClock;
    mruWay_[set] = way;
    return true;
}

bool
Cache::probe(Addr addr) const
{
    std::uint32_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    std::size_t base = static_cast<std::size_t>(set) * params_.assoc;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (tags_[base + w] == tag)
            return true;
    }
    return false;
}

std::uint64_t
Cache::pollute(std::uint64_t count, PollutionMode mode)
{
    // Clamp invalidation requests to the lines that can actually be
    // evicted: beyond that every draw is a guaranteed no-op, and the
    // old unclamped loop both wasted RNG draws and let callers
    // believe a request larger than the cache was meaningful.
    if (mode == PollutionMode::InvalidateApp)
        count = std::min(count, residentLines(Owner::App));
    else if (mode == PollutionMode::InvalidateAny)
        count = std::min(count, residentLines());

    std::uint64_t affected = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t set = rng.range(numSets_);
        std::size_t base =
            static_cast<std::size_t>(set) * params_.assoc;
        Line *ln = &lines[base];

        // Invalid slot first: a free victim for Install, a no-op
        // draw for the invalidating modes (Sec. 4.5 victim order).
        std::int32_t invalid_way = -1;
        for (std::uint32_t w = 0; w < params_.assoc; ++w) {
            if (!ln[w].valid) {
                invalid_way = static_cast<std::int32_t>(w);
                break;
            }
        }

        std::int32_t victim = -1;
        if (invalid_way >= 0) {
            if (mode != PollutionMode::Install)
                continue;
            victim = invalid_way;
        } else {
            // LRU among eligible lines, then more recently used.
            for (std::uint32_t w = 0; w < params_.assoc; ++w) {
                if (mode == PollutionMode::InvalidateApp &&
                    ln[w].owner != Owner::App) {
                    continue;
                }
                if (victim < 0 ||
                    ln[w].lruStamp < ln[victim].lruStamp) {
                    victim = static_cast<std::int32_t>(w);
                }
            }
            if (victim < 0)
                continue;
        }

        std::size_t idx = base + static_cast<std::size_t>(victim);
        Line &line = lines[idx];
        bool evicted = line.valid;
        if (mode == PollutionMode::Install) {
            // Synthetic fill: a tag outside the architectural
            // address space so it can never hit, owned by the OS,
            // MRU (the skipped service just touched it).
            retag(idx, true, Owner::Os);
            tags_[idx] = (1ULL << 52) + syntheticTag++;
            line.dirty = false;
            line.lruStamp = ++lruClock;
            stats_.injectedFills += 1;
        } else {
            retag(idx, false, line.owner);
            line.dirty = false;
        }
        // Only a displaced valid line is an eviction; filling an
        // invalid slot used to be over-reported here.
        if (evicted)
            stats_.injectedEvictions += 1;
        ++affected;
    }
    return affected;
}

void
Cache::flush()
{
    for (Line &line : lines) {
        line.valid = false;
        line.dirty = false;
        line.lruStamp = 0;
    }
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(mruWay_.begin(), mruWay_.end(), 0u);
    validLines_[0] = 0;
    validLines_[1] = 0;
    // With every line invalid this state is unobservable; rewinding
    // it makes a reused cache's LRU stamps and synthetic tags
    // independent of prior-run history (see header comment).
    lruClock = 0;
    syntheticTag = 0;
}

} // namespace osp
