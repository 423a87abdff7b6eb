/**
 * @file
 * Lowering of declarative work items into MicroOp streams.
 *
 * Workloads and OS service handlers describe what a piece of code
 * does ("run 1200 VFS-profile ops over the dentry region", "copy
 * 16KB from the page cache to the user buffer") and the
 * CodeGenerator turns that into a deterministic instruction stream.
 *
 * Determinism matters: the same plan produces the same instruction
 * count whether it is consumed by the detailed timing models or by
 * the fast emulator, which is precisely the property that makes the
 * instruction count usable as a performance-behaviour signature
 * (Sec. 3 of the paper).
 */

#ifndef OSP_SIM_CODEGEN_HH
#define OSP_SIM_CODEGEN_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "code_profile.hh"
#include "microop.hh"
#include "util/random.hh"

namespace osp
{

/**
 * A queue of work items lowered lazily into MicroOps.
 *
 * Each instance owns its RNG, so two generators never perturb each
 * other and a given (seed, stream) pair replays exactly.
 */
class CodeGenerator
{
  public:
    explicit CodeGenerator(std::uint64_t seed, std::uint64_t stream);

    /**
     * Queue a generic compute block.
     *
     * @param profile  instruction mix / code footprint to draw from
     * @param num_ops  exact number of MicroOps the block yields
     * @param data     region loads and stores fall into
     * @param pattern  how data accesses walk the region
     * @param stride   stride for sequential patterns (bytes)
     */
    void pushCompute(const CodeProfile &profile, std::uint64_t num_ops,
                     Region data,
                     PatternKind pattern = PatternKind::Sequential,
                     std::uint32_t stride = 64);

    /**
     * Queue a copy loop moving @p bytes from @p src to @p dst.
     * Lowered as 4 ops per 16 bytes: load, store, index update,
     * loop branch. Yields exactly 4 * ceil(bytes/16) ops.
     */
    void pushCopy(const CodeProfile &profile, std::uint64_t bytes,
                  Region src, Region dst);

    /** True when every queued item is exhausted. */
    bool done() const { return items.empty(); }

    /** Exact number of MicroOps left across all queued items. */
    std::uint64_t pendingOps() const;

    /** Produce the next MicroOp. Calling with done() is a panic. */
    MicroOp next();

    /**
     * Lower up to @p cap MicroOps into @p out and return how many
     * were produced (0 iff done()). Produces the byte-identical
     * sequence repeated next() calls would — same RNG draws, same
     * cursor updates — but hoists the per-op queue-front checks and
     * kind dispatch out of the loop, which is what makes block
     * retirement in the Machine worth having.
     */
    std::size_t nextBlock(MicroOp *out, std::size_t cap);

    /**
     * Lower up to @p cap ops into @p sink and return how many were
     * lowered. The ops, RNG draws and cursor updates are exactly
     * those nextBlock() would produce; instead of a MicroOp, each op
     * reaches the sink as one call per class, with the class branch
     * already taken:
     *
     *   sink.load(pc, addr, dep);   sink.store(pc, addr, dep);
     *   sink.branch(pc, taken, dep);
     *   sink.other(pc, cls, exec_lat, dep);  // IntAlu or FpAlu
     *
     * A sink whose `static constexpr bool kDepDist` is false does
     * not read dependence distances: the lowering still makes their
     * draws, so the stream is unchanged, but skips computing them
     * and passes 0 for a drawn distance.
     */
    template <class Sink>
    std::uint64_t drainInto(Sink &sink,
                            std::uint64_t cap = ~std::uint64_t(0));

    /** Drop all queued work. */
    void clear() { items.clear(); }

  private:
    struct WorkItem
    {
        enum class Kind : std::uint8_t { Compute, Copy };
        Kind kind = Kind::Compute;
        CodeProfile profile;  //!< copied: callers may reuse/destroy
        std::uint64_t opsLeft = 0;
        // Data-access cursors.
        Region data;
        PatternKind pattern = PatternKind::Sequential;
        std::uint32_t stride = 64;
        Addr dataCursor = 0;
        // Copy state.
        Region src;
        Region dst;
        Addr srcCursor = 0;
        Addr dstCursor = 0;
        std::uint8_t copyPhase = 0;
        // Fetch state.
        Addr pc = 0;
        std::uint32_t blockLeft = 0;
        /**
         * Raw-integer forms of the profile's class-selection and
         * Bernoulli thresholds (Pcg32::rawThreshold), derived once
         * in startItem() from the exact cumulative doubles the
         * lowering compares used to rebuild per op. Same draws,
         * same outcomes — minus four int->double conversions and
         * double compares per lowered op.
         */
        std::uint64_t thrLoad = 0;
        std::uint64_t thrStore = 0;      //!< load + store
        std::uint64_t thrBranch = 0;     //!< load + store + branch
        std::uint64_t thrFp = 0;         //!< ... + fp
        std::uint64_t thrBranchRandom = 0;
        std::uint64_t thrDep = 0;
        /**
         * Precomputed range(bound) constants for the item's fixed
         * bounds (code-block jumps, data-region lines, hot-subset
         * lines), so the per-draw path never recomputes a rejection
         * threshold or Lemire magic when draws alternate between
         * bounds. Same draws, same values as plain range().
         */
        Pcg32::RangeDraw pcDraw;
        Pcg32::RangeDraw dataDraw;
        Pcg32::RangeDraw hotDraw;
        /** Shared table for the profile's dep-distance p. */
        const Pcg32::GeomTable *geom = nullptr;
    };

    /** Pick a data address for @p item and advance its cursors. */
    static Addr dataAddr(WorkItem &item, bool chase, Pcg32 &rng);

    /** Advance the fetch point; returns the pc for the next op. */
    static Addr nextPc(WorkItem &item, Pcg32 &rng);

    /** The op's drawn dependence distance (0: none), computed only
     *  when @p kWant; the draws are made either way. */
    template <bool kWant>
    static std::uint8_t depDraw(const WorkItem &item, Pcg32 &rng);

    /** The one lowering body: @p count ops of @p item into @p sink,
     *  drawing from @p rng and tracking @p since_load, the ops since
     *  the last load (see drainInto()). */
    template <class Sink>
    static void lowerInto(WorkItem &item, Pcg32 &rng,
                          std::uint32_t &since_load,
                          std::uint64_t count, Sink &sink);

    /** Retire the exhausted front item. */
    void popItem();

    void startItem(WorkItem &item);

    /** The shared GeomTable for probability p (built on first use). */
    const Pcg32::GeomTable *geomTableFor(double p);

    std::deque<WorkItem> items;
    Pcg32 rng;
    /**
     * The exact-replay geometric tables this generator has used, one
     * per distinct dep-distance probability. A table depends only on
     * p, so the tables themselves live in one process-wide set that
     * builds each p once (under a lock, on first use by any thread)
     * and never mutates or frees it; generators on any thread share
     * them read-only. This vector is the lock-free first lookup, so
     * a generator takes the lock once per distinct p it sees.
     */
    std::vector<const Pcg32::GeomTable *> geomTables;
    /** Dynamic distance (ops) since the last emitted load, for
     *  pointer-chase dependence chains. */
    std::uint32_t opsSinceLoad = 255;
    /**
     * Sequential-pattern cursors persisted across work items, keyed
     * by region base: a streaming workload split into many compute
     * blocks keeps walking forward instead of restarting at the
     * region base each block.
     */
    std::unordered_map<Addr, Addr> seqCursors;
};

// ---------------------------------------------------------------
// Lowering bodies. They live in the header so every sink, the
// MicroOp writer behind nextBlock() and the Machine's predicted-
// service sink alike, is inlined into its own copy of the loop.
// ---------------------------------------------------------------

namespace codegen_detail
{

// Fixed-probability trials in the lowering path, as raw thresholds.
inline const std::uint64_t kThrHot = Pcg32::rawThreshold(0.9);
inline const std::uint64_t kThrHalf = Pcg32::rawThreshold(0.5);
inline const std::uint64_t kThrFlip = Pcg32::rawThreshold(0.02);

} // namespace codegen_detail

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
               64ULL * rng.rangeWith(
                           rng.chanceRaw(codegen_detail::kThrHot)
                               ? item.hotDraw
                               : item.dataDraw);
    }
    return region.base;
}

template <bool kWant>
inline std::uint8_t
CodeGenerator::depDraw(const WorkItem &item, Pcg32 &rng)
{
    const Pcg32::GeomTable &t = *item.geom;
    bool dep = rng.chanceRaw(item.thrDep);
    if constexpr (kWant) {
        if (!dep)
            return 0;
        return static_cast<std::uint8_t>(
            std::min<std::uint32_t>(rng.geometricWith(t), 255));
    } else {
        // Only the stream position matters: consume
        // geometricWith()'s one draw, under its own guards, without
        // branching on a trial that is close to a coin flip.
        rng.discardIf(dep & (t.p < 1.0) & (t.p > 0.0));
        return 0;
    }
}

template <class Sink>
[[gnu::always_inline]] inline void
CodeGenerator::lowerInto(WorkItem &item, Pcg32 &rng,
                         std::uint32_t &since_load, std::uint64_t count,
                         Sink &sink)
{
    constexpr bool kDeps = Sink::kDepDist;
    auto retired = [&](bool load) {
        since_load = load ? 1 : std::min<std::uint32_t>(
                                    since_load + 1, 255);
    };

    if (item.kind == WorkItem::Kind::Copy) {
        // 4 ops per 16 bytes: load, store, index update, loop
        // branch. No draws beyond the fetch point's.
        for (std::uint64_t k = 0; k < count; ++k) {
            Addr pc = nextPc(item, rng);
            switch (item.copyPhase) {
              case 0:
                sink.load(pc, item.srcCursor, 0);
                break;
              case 1:
                // Stores the value just loaded.
                sink.store(pc, item.dstCursor, 1);
                break;
              case 2:
                sink.other(pc, OpClass::IntAlu, 1, 0);
                break;
              case 3:
              default:
                // Loop-closing branch, well predicted.
                sink.branch(pc, true, 0);
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
                          : depDraw<kDeps>(item, rng);
                retired(true);
                sink.load(pc, a, dep);
            } else if (roll < item.thrStore) {
                Addr a = dataAddr(item, false, rng);
                std::uint8_t dep = depDraw<kDeps>(item, rng);
                retired(false);
                sink.store(pc, a, dep);
            } else if (roll < item.thrBranch) {
                bool taken;
                if (rng.chanceRaw(item.thrBranchRandom)) {
                    taken = rng.chanceRaw(codegen_detail::kThrHalf);
                } else {
                    // Strongly biased (loop-like) branch; predictors
                    // learn it.
                    taken = !rng.chanceRaw(codegen_detail::kThrFlip);
                }
                std::uint8_t dep = depDraw<kDeps>(item, rng);
                retired(false);
                sink.branch(pc, taken, dep);
            } else if (roll < item.thrFp) {
                std::uint8_t dep = depDraw<kDeps>(item, rng);
                retired(false);
                sink.other(pc, OpClass::FpAlu, item.profile.fpLatency,
                           dep);
            } else {
                std::uint8_t dep = depDraw<kDeps>(item, rng);
                retired(false);
                sink.other(pc, OpClass::IntAlu, 1, dep);
            }
        }
    }
}

template <class Sink>
inline std::uint64_t
CodeGenerator::drainInto(Sink &sink, std::uint64_t cap)
{
    std::uint64_t n = 0;
    while (n < cap && !items.empty()) {
        WorkItem &item = items.front();
        std::uint64_t take = std::min(cap - n, item.opsLeft);
        if (take == 1) {
            // One op at a time (next()): the copies below would cost
            // more than they save.
            lowerInto(item, rng, opsSinceLoad, 1, sink);
        } else {
            // Lower from local copies of the item, the RNG and the
            // ops-since-load count, written back after: the sink's
            // stores could alias the members, which would force a
            // reload and store of the cursors and the RNG state
            // around every op.
            WorkItem local = item;
            Pcg32 local_rng = rng;
            std::uint32_t since_load = opsSinceLoad;
            lowerInto(local, local_rng, since_load, take, sink);
            item = local;
            rng = local_rng;
            opsSinceLoad = since_load;
        }
        n += take;
        item.opsLeft -= take;
        if (item.opsLeft == 0)
            popItem();
    }
    return n;
}

} // namespace osp

#endif // OSP_SIM_CODEGEN_HH
