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
     * Footprint addresses of queued work that has not been lowered,
     * found without lowering it. Appends to @p data the first
     * @p data_n slots of a size-@p data_cap reservoir sample
     * (Algorithm R) of the plan's loads and stores, in the order the
     * lowered stream would make them, and to @p code the first
     * @p code_n slots of a size-@p code_cap one of the pcs of every
     * 16th op. Slot s holds the s-th element with probability
     * cap / N, and otherwise one drawn uniformly from those after the
     * first cap; no more than N slots are filled. N counts a copy's
     * loads and stores exactly and a compute item's at their expected
     * number. Every draw comes from @p rng: the queue and the
     * generator's own stream are left as they were.
     *
     * An access's address follows its item's lowering rule: a copy
     * walks its source and destination 16 bytes at a time, a
     * Sequential item walks from its cursor by its stride, a Random
     * or PointerChase item is uniform over its region's lines and a
     * Hot one sends 90% of its accesses to the first tenth of its
     * region. A pc lies in the item's first fetch run, or in a later
     * one from a code block drawn as nextPc() draws it.
     */
    void sampleFootprint(std::uint64_t data_cap, std::uint64_t data_n,
                         std::uint64_t code_cap, std::uint64_t code_n,
                         Pcg32 &rng, std::vector<Addr> &data,
                         std::vector<Addr> &code) const;

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

    /** The op's drawn dependence distance (0: none). */
    static std::uint8_t depDraw(const WorkItem &item, Pcg32 &rng);

    /** The one lowering body: @p count ops of @p item into @p out,
     *  drawing from @p rng and tracking @p since_load, the ops since
     *  the last load. */
    static void lowerInto(WorkItem &item, Pcg32 &rng,
                          std::uint32_t &since_load,
                          std::uint64_t count, MicroOp *out);

    /** The address of unlowered @p item's @p j-th load or store. */
    static Addr accessAddr(const WorkItem &item, std::uint64_t j,
                           Pcg32 &rng);

    /** The pc of unlowered @p item's @p k-th op. */
    static Addr opPc(const WorkItem &item, std::uint64_t k, Pcg32 &rng);

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

} // namespace osp

#endif // OSP_SIM_CODEGEN_HH
