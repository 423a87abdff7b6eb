#include "codegen.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>

#include "util/logging.hh"

namespace osp
{

CodeGenerator::CodeGenerator(std::uint64_t seed, std::uint64_t stream)
    : rng(seed, stream)
{
}

void
CodeGenerator::pushCompute(const CodeProfile &profile,
                           std::uint64_t num_ops, Region data,
                           PatternKind pattern, std::uint32_t stride)
{
    if (num_ops == 0)
        return;
    WorkItem item;
    item.kind = WorkItem::Kind::Compute;
    item.profile = profile;
    item.opsLeft = num_ops;
    item.data = data;
    item.pattern = pattern;
    item.stride = std::max<std::uint32_t>(stride, 1);
    startItem(item);
    items.push_back(item);
}

void
CodeGenerator::pushCopy(const CodeProfile &profile,
                        std::uint64_t bytes, Region src, Region dst)
{
    if (bytes == 0)
        return;
    WorkItem item;
    item.kind = WorkItem::Kind::Copy;
    item.profile = profile;
    std::uint64_t units = (bytes + 15) / 16;
    item.opsLeft = units * 4;
    item.src = src;
    item.dst = dst;
    item.srcCursor = src.base;
    item.dstCursor = dst.base;
    startItem(item);
    items.push_back(item);
}

void
CodeGenerator::startItem(WorkItem &item)
{
    const CodeProfile &p = item.profile;
    // Cumulative sums formed exactly as the per-op comparisons
    // historically did, so the raw thresholds are bit-equivalent.
    item.thrLoad = Pcg32::rawThreshold(p.loadFrac);
    item.thrStore = Pcg32::rawThreshold(p.loadFrac + p.storeFrac);
    item.thrBranch =
        Pcg32::rawThreshold(p.loadFrac + p.storeFrac + p.branchFrac);
    item.thrFp = Pcg32::rawThreshold(p.loadFrac + p.storeFrac +
                                     p.branchFrac + p.fpFrac);
    item.thrBranchRandom = Pcg32::rawThreshold(p.branchRandomFrac);
    item.thrDep = Pcg32::rawThreshold(p.depChance);
    item.geom = geomTableFor(1.0 / std::max(p.depDistMean, 1.0));

    const Region &code = item.profile.code;
    if (code.size < 64)
        osp_panic("code region too small: ", code.size);
    // Start fetching at a random 64-byte-aligned block.
    std::uint64_t blocks = code.size / 64;
    item.pc = code.base + 64ULL * rng.range(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            blocks, 0xffffffffULL)));
    item.blockLeft = item.profile.blockRunBytes;
    if (item.data.size == 0)
        item.data = Region{code.base, 4096};
    if (item.kind == WorkItem::Kind::Compute &&
        item.pattern == PatternKind::Sequential) {
        auto it = seqCursors.find(item.data.base);
        item.dataCursor = it != seqCursors.end() &&
                                  item.data.contains(it->second)
                              ? it->second
                              : item.data.base;
    } else {
        item.dataCursor = item.data.base;
    }

    // Fixed per-item draw bounds (code blocks, data lines, hot
    // lines), formed exactly as nextPc()/dataAddr() historically
    // computed them per draw.
    item.pcDraw = Pcg32::makeRange(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            blocks, 0xffffffffULL)));
    const Region &region = item.data;
    std::uint64_t lines =
        std::max<std::uint64_t>(region.size / 64, 1);
    item.dataDraw = Pcg32::makeRange(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            lines, 0xffffffffULL)));
    std::uint64_t hot =
        std::max<std::uint64_t>(region.size / 10, 64);
    std::uint64_t hot_lines = std::max<std::uint64_t>(hot / 64, 1);
    item.hotDraw = Pcg32::makeRange(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            hot_lines, 0xffffffffULL)));
}

namespace
{

/**
 * The process-wide table for @p p, keyed by its exact bit pattern.
 * Built under the lock by whichever thread asks first, then never
 * mutated or freed: map nodes do not move, so the pointer stays
 * valid and lock-free to read from any thread for the life of the
 * process.
 */
const Pcg32::GeomTable *
sharedGeomTable(double p)
{
    static std::mutex mu;
    static std::map<std::uint64_t, Pcg32::GeomTable> tables;
    std::lock_guard<std::mutex> lock(mu);
    auto [it, inserted] =
        tables.try_emplace(std::bit_cast<std::uint64_t>(p));
    if (inserted)
        it->second = Pcg32::makeGeomTable(p);
    return &it->second;
}

} // namespace

const Pcg32::GeomTable *
CodeGenerator::geomTableFor(double p)
{
    for (const Pcg32::GeomTable *t : geomTables)
        if (std::bit_cast<std::uint64_t>(t->p) ==
            std::bit_cast<std::uint64_t>(p))
            return t;
    geomTables.push_back(sharedGeomTable(p));
    return geomTables.back();
}

std::uint64_t
CodeGenerator::pendingOps() const
{
    std::uint64_t n = 0;
    for (const auto &item : items)
        n += item.opsLeft;
    return n;
}

namespace
{

// Fixed-probability trials in the lowering path, as raw thresholds.
const std::uint64_t kThrHot = Pcg32::rawThreshold(0.9);
const std::uint64_t kThrHalf = Pcg32::rawThreshold(0.5);
const std::uint64_t kThrFlip = Pcg32::rawThreshold(0.02);

/**
 * Where a cursor that starts at @p cursor inside @p region and
 * advances @p stride bytes per access is after @p steps accesses.
 * It restarts at the region's base once it reaches the end; a
 * size-0 region never wraps.
 */
Addr
walkAddr(const Region &region, Addr cursor, std::uint64_t stride,
         std::uint64_t steps)
{
    if (region.size == 0)
        return cursor + stride * steps;
    const Addr end = region.base + region.size;
    const std::uint64_t before_wrap = (end - cursor + stride - 1) / stride;
    if (steps < before_wrap)
        return cursor + stride * steps;
    const std::uint64_t period = (region.size + stride - 1) / stride;
    return region.base + stride * ((steps - before_wrap) % period);
}

} // namespace

inline Addr
CodeGenerator::nextPc(WorkItem &item, Pcg32 &rng)
{
    const Region &code = item.profile.code;
    if (item.blockLeft < 4) {
        // Jump to a new block within the code footprint.
        item.pc = code.base + 64ULL * rng.rangeWith(item.pcDraw);
        item.blockLeft = item.profile.blockRunBytes;
    }
    Addr pc = item.pc;
    item.pc += 4;
    item.blockLeft -= 4;
    if (item.pc >= code.base + code.size) {
        item.pc = code.base;
        item.blockLeft = item.profile.blockRunBytes;
    }
    return pc;
}

inline Addr
CodeGenerator::dataAddr(WorkItem &item, bool chase, Pcg32 &rng)
{
    const Region &region = item.data;
    if (region.size == 0)
        return region.base;
    switch (chase ? PatternKind::PointerChase : item.pattern) {
      case PatternKind::Sequential:
        {
            Addr a = item.dataCursor;
            item.dataCursor += item.stride;
            if (item.dataCursor >= region.base + region.size)
                item.dataCursor = region.base;
            return a;
        }
      case PatternKind::Random:
      case PatternKind::PointerChase:
        return region.base + 64ULL * rng.rangeWith(item.dataDraw);
      case PatternKind::Hot:
        // 90% of accesses hit the first 10% of the region.
        return region.base +
               64ULL * rng.rangeWith(rng.chanceRaw(kThrHot)
                                         ? item.hotDraw
                                         : item.dataDraw);
    }
    return region.base;
}

inline std::uint8_t
CodeGenerator::depDraw(const WorkItem &item, Pcg32 &rng)
{
    if (!rng.chanceRaw(item.thrDep))
        return 0;
    return static_cast<std::uint8_t>(
        std::min<std::uint32_t>(rng.geometricWith(*item.geom), 255));
}

[[gnu::always_inline]] inline void
CodeGenerator::lowerInto(WorkItem &item, Pcg32 &rng,
                         std::uint32_t &since_load, std::uint64_t count,
                         MicroOp *out)
{
    auto retired = [&](bool load) {
        since_load = load ? 1 : std::min<std::uint32_t>(
                                    since_load + 1, 255);
    };

    // Loads take their latency from the memory system (execLat 0).
    if (item.kind == WorkItem::Kind::Copy) {
        // 4 ops per 16 bytes: load, store, index update, loop
        // branch. No draws beyond the fetch point's.
        for (std::uint64_t k = 0; k < count; ++k) {
            Addr pc = nextPc(item, rng);
            switch (item.copyPhase) {
              case 0:
                *out++ = MicroOp{pc, item.srcCursor, OpClass::Load, 0,
                                 0, false};
                break;
              case 1:
                // Stores the value just loaded.
                *out++ = MicroOp{pc, item.dstCursor, OpClass::Store,
                                 1, 1, false};
                break;
              case 2:
                *out++ = MicroOp{pc, 0, OpClass::IntAlu, 0, 1, false};
                break;
              case 3:
              default:
                // Loop-closing branch, well predicted.
                *out++ = MicroOp{pc, 0, OpClass::Branch, 0, 1, true};
                item.srcCursor += 16;
                item.dstCursor += 16;
                if (item.src.size &&
                    item.srcCursor >= item.src.base + item.src.size)
                    item.srcCursor = item.src.base;
                if (item.dst.size &&
                    item.dstCursor >= item.dst.base + item.dst.size)
                    item.dstCursor = item.dst.base;
                break;
            }
            retired(item.copyPhase == 0);
            item.copyPhase = (item.copyPhase + 1) & 3;
        }
    } else {
        const bool chase = item.pattern == PatternKind::PointerChase;
        for (std::uint64_t k = 0; k < count; ++k) {
            Addr pc = nextPc(item, rng);
            // One draw, compared against the item's precomputed raw
            // thresholds — outcome-identical to the historical
            // uniform()-vs-cumulative-fraction chain (see rawThreshold).
            std::uint32_t roll = rng.next();
            if (roll < item.thrLoad) {
                Addr a = dataAddr(item, chase, rng);
                // A chased load serializes on the previous load (pointer
                // dereference); since_load is 1 when that was the
                // previous op. Other loads draw their distance.
                std::uint8_t dep =
                    chase ? static_cast<std::uint8_t>(since_load)
                          : depDraw(item, rng);
                retired(true);
                *out++ = MicroOp{pc, a, OpClass::Load, dep, 0, false};
            } else if (roll < item.thrStore) {
                Addr a = dataAddr(item, false, rng);
                std::uint8_t dep = depDraw(item, rng);
                retired(false);
                *out++ = MicroOp{pc, a, OpClass::Store, dep, 1, false};
            } else if (roll < item.thrBranch) {
                bool taken;
                if (rng.chanceRaw(item.thrBranchRandom)) {
                    taken = rng.chanceRaw(kThrHalf);
                } else {
                    // Strongly biased (loop-like) branch; predictors
                    // learn it.
                    taken = !rng.chanceRaw(kThrFlip);
                }
                std::uint8_t dep = depDraw(item, rng);
                retired(false);
                *out++ = MicroOp{pc, 0, OpClass::Branch, dep, 1, taken};
            } else if (roll < item.thrFp) {
                std::uint8_t dep = depDraw(item, rng);
                retired(false);
                *out++ = MicroOp{pc, 0, OpClass::FpAlu, dep,
                                 item.profile.fpLatency, false};
            } else {
                std::uint8_t dep = depDraw(item, rng);
                retired(false);
                *out++ = MicroOp{pc, 0, OpClass::IntAlu, dep, 1, false};
            }
        }
    }
}

MicroOp
CodeGenerator::next()
{
    MicroOp op;
    if (nextBlock(&op, 1) == 0)
        osp_panic("CodeGenerator::next() called with no work queued");
    return op;
}

std::size_t
CodeGenerator::nextBlock(MicroOp *out, std::size_t cap)
{
    std::size_t n = 0;
    while (n < cap && !items.empty()) {
        WorkItem &item = items.front();
        const std::uint64_t take =
            std::min<std::uint64_t>(cap - n, item.opsLeft);
        if (take == 1) {
            // One op at a time (next()): the copies below would cost
            // more than they save.
            lowerInto(item, rng, opsSinceLoad, 1, out + n);
        } else {
            // Lower from local copies of the item, the RNG and the
            // ops-since-load count, written back after: the MicroOp
            // stores could alias the members, which would force a
            // reload and store of the cursors and the RNG state
            // around every op.
            WorkItem local = item;
            Pcg32 local_rng = rng;
            std::uint32_t since_load = opsSinceLoad;
            lowerInto(local, local_rng, since_load, take, out + n);
            item = local;
            rng = local_rng;
            opsSinceLoad = since_load;
        }
        n += static_cast<std::size_t>(take);
        item.opsLeft -= take;
        if (item.opsLeft == 0)
            popItem();
    }
    return n;
}

Addr
CodeGenerator::accessAddr(const WorkItem &item, std::uint64_t j,
                          Pcg32 &rng)
{
    // A copy's unit loads, then stores.
    if (item.kind == WorkItem::Kind::Copy)
        return j % 2 == 0
                   ? walkAddr(item.src, item.srcCursor, 16, j / 2)
                   : walkAddr(item.dst, item.dstCursor, 16, j / 2);
    const Region &region = item.data;
    switch (item.pattern) {
      case PatternKind::Sequential:
        return walkAddr(region, item.dataCursor, item.stride, j);
      case PatternKind::Hot:
        return region.base +
               64ULL * rng.rangeWith(rng.chanceRaw(kThrHot)
                                         ? item.hotDraw
                                         : item.dataDraw);
      case PatternKind::Random:
      case PatternKind::PointerChase:
        break;
    }
    return region.base + 64ULL * rng.rangeWith(item.dataDraw);
}

Addr
CodeGenerator::opPc(const WorkItem &item, std::uint64_t k, Pcg32 &rng)
{
    const Region &code = item.profile.code;
    const std::uint64_t run =
        std::max<std::uint64_t>(item.profile.blockRunBytes / 4, 1);
    const std::uint64_t lap = (code.size + 3) / 4;
    // The item's first run starts at item.pc, each later one at a
    // block drawn as nextPc() draws it. Reaching the region's end
    // restarts a run at the base with `run` fresh ops (for good if
    // the region is no longer), so later runs differ in length and
    // the op's offset o in one is drawn in proportion to it.
    for (bool first = true;; first = false) {
        const Addr start =
            first ? item.pc
                  : code.base + 64ULL * rng.rangeWith(item.pcDraw);
        std::uint64_t o =
            first ? k : rng.range(static_cast<std::uint32_t>(2 * run));
        const std::uint64_t to_end = (code.base + code.size - start + 3) / 4;
        if (o < std::min(to_end, run))
            return start + 4 * o;
        if (to_end > run)
            continue;  // past the end of a run that never wrapped
        o -= to_end;
        if (o < run || lap <= run)
            return code.base + 4 * (o % lap);
    }
}

void
CodeGenerator::sampleFootprint(std::uint64_t data_cap,
                               std::uint64_t data_n,
                               std::uint64_t code_cap,
                               std::uint64_t code_n, Pcg32 &rng,
                               std::vector<Addr> &data,
                               std::vector<Addr> &code) const
{
    // Where each item's loads and stores, and its ops, end in the
    // plan's sequence of them: a copy makes one load and one store
    // per 4-op unit, a compute item its expected number.
    std::vector<std::uint64_t> access_end(items.size());
    std::vector<std::uint64_t> op_end(items.size());
    std::uint64_t accesses = 0;
    std::uint64_t ops = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const WorkItem &item = items[i];
        const double rate = item.profile.loadFrac + item.profile.storeFrac;
        accesses += item.kind == WorkItem::Kind::Copy
                        ? item.opsLeft / 2
                        : static_cast<std::uint64_t>(std::llround(
                              static_cast<double>(item.opsLeft) * rate));
        access_end[i] = accesses;
        ops += item.opsLeft;
        op_end[i] = ops;
    }

    // The first n slots of a size-cap reservoir over the accesses,
    // or over the pcs of every 16th op (@p pcs): one per 64-byte line
    // of straight-line fetch.
    auto fill = [&](const std::vector<std::uint64_t> &end, bool pcs,
                    std::uint64_t cap, std::uint64_t n,
                    std::vector<Addr> &out) {
        const std::uint64_t stride = pcs ? 16 : 1;
        const std::uint64_t total = (end.empty() ? 0 : end.back()) / stride;
        n = std::min({n, cap, total});
        for (std::uint64_t s = 0; s < n; ++s) {
            // Algorithm R: slot s keeps element s with probability
            // cap / total, else holds a later one, uniformly drawn.
            std::uint64_t pos = s;
            if (total > cap) {
                const std::uint64_t u = rng.range64(total);
                pos = u < cap ? s : u;
            }
            pos = stride * pos + stride - 1;
            const std::size_t i = static_cast<std::size_t>(
                std::upper_bound(end.begin(), end.end(), pos) -
                end.begin());
            if (i)
                pos -= end[i - 1];
            out.push_back(pcs ? opPc(items[i], pos, rng)
                              : accessAddr(items[i], pos, rng));
        }
    };
    fill(access_end, false, data_cap, data_n, data);
    fill(op_end, true, code_cap, code_n, code);
}

void
CodeGenerator::popItem()
{
    const WorkItem &item = items.front();
    if (item.kind == WorkItem::Kind::Compute &&
        item.pattern == PatternKind::Sequential) {
        seqCursors[item.data.base] = item.dataCursor;
    }
    items.pop_front();
}

} // namespace osp
