#include "codegen.hh"

#include <algorithm>
#include <bit>
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

/** The sink behind next()/nextBlock(): writes each op as a MicroOp. */
struct MicroOpWriter
{
    static constexpr bool kDepDist = true;
    MicroOp *out;

    void
    load(Addr pc, Addr addr, std::uint8_t dep)
    {
        // Latency comes from the memory system.
        *out++ = MicroOp{pc, addr, OpClass::Load, dep, 0, false};
    }

    void
    store(Addr pc, Addr addr, std::uint8_t dep)
    {
        *out++ = MicroOp{pc, addr, OpClass::Store, dep, 1, false};
    }

    void
    branch(Addr pc, bool taken, std::uint8_t dep)
    {
        *out++ = MicroOp{pc, 0, OpClass::Branch, dep, 1, taken};
    }

    void
    other(Addr pc, OpClass cls, std::uint8_t lat, std::uint8_t dep)
    {
        *out++ = MicroOp{pc, 0, cls, dep, lat, false};
    }
};

} // namespace

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
    MicroOpWriter writer{out};
    return static_cast<std::size_t>(drainInto(writer, cap));
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
