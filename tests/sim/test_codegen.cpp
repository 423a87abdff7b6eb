/** @file Tests for the work-item code generator. */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "sim/codegen.hh"

namespace osp
{
namespace
{

CodeProfile
basicProfile()
{
    CodeProfile p;
    p.loadFrac = 0.3;
    p.storeFrac = 0.1;
    p.branchFrac = 0.2;
    p.fpFrac = 0.1;
    p.code = Region{0x1000, 8192};
    return p;
}

TEST(CodeGenerator, ExactOpCountForCompute)
{
    CodeGenerator gen(1, 1);
    gen.pushCompute(basicProfile(), 1234, Region{0x8000, 4096});
    EXPECT_EQ(gen.pendingOps(), 1234u);
    std::uint64_t n = 0;
    while (!gen.done()) {
        gen.next();
        ++n;
    }
    EXPECT_EQ(n, 1234u);
}

TEST(CodeGenerator, ExactOpCountForCopy)
{
    CodeGenerator gen(1, 2);
    // 4 ops per 16 bytes.
    gen.pushCopy(basicProfile(), 4096, Region{0x8000, 4096},
                 Region{0x10000, 4096});
    EXPECT_EQ(gen.pendingOps(), 4096u / 16 * 4);
    gen.pushCopy(basicProfile(), 17, Region{0x8000, 4096},
                 Region{0x10000, 4096});
    // ceil(17/16) = 2 units -> 8 more ops.
    EXPECT_EQ(gen.pendingOps(), 4096u / 16 * 4 + 8);
}

TEST(CodeGenerator, ZeroWorkIsNoop)
{
    CodeGenerator gen(1, 3);
    gen.pushCompute(basicProfile(), 0, Region{0x8000, 4096});
    gen.pushCopy(basicProfile(), 0, Region{0x8000, 64},
                 Region{0x9000, 64});
    EXPECT_TRUE(gen.done());
}

TEST(CodeGenerator, NextOnEmptyDies)
{
    CodeGenerator gen(1, 4);
    EXPECT_DEATH(gen.next(), "no work");
}

TEST(CodeGenerator, MixApproximatesProfile)
{
    CodeGenerator gen(7, 5);
    CodeProfile p = basicProfile();
    const std::uint64_t n = 50000;
    gen.pushCompute(p, n, Region{0x8000, 65536});
    std::map<OpClass, std::uint64_t> counts;
    while (!gen.done())
        counts[gen.next().cls] += 1;
    EXPECT_NEAR(counts[OpClass::Load] / double(n), p.loadFrac, 0.01);
    EXPECT_NEAR(counts[OpClass::Store] / double(n), p.storeFrac,
                0.01);
    EXPECT_NEAR(counts[OpClass::Branch] / double(n), p.branchFrac,
                0.01);
    EXPECT_NEAR(counts[OpClass::FpAlu] / double(n), p.fpFrac, 0.01);
}

TEST(CodeGenerator, SameSeedSameStream)
{
    CodeGenerator a(42, 9);
    CodeGenerator b(42, 9);
    a.pushCompute(basicProfile(), 2000, Region{0x8000, 4096});
    b.pushCompute(basicProfile(), 2000, Region{0x8000, 4096});
    while (!a.done()) {
        MicroOp x = a.next();
        MicroOp y = b.next();
        ASSERT_EQ(x.cls, y.cls);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.effAddr, y.effAddr);
        ASSERT_EQ(x.depDist, y.depDist);
        ASSERT_EQ(x.taken, y.taken);
    }
    EXPECT_TRUE(b.done());
}

TEST(CodeGenerator, PcStaysInCodeRegion)
{
    CodeGenerator gen(3, 6);
    CodeProfile p = basicProfile();
    gen.pushCompute(p, 20000, Region{0x8000, 4096});
    while (!gen.done()) {
        MicroOp op = gen.next();
        ASSERT_GE(op.pc, p.code.base);
        ASSERT_LT(op.pc, p.code.base + p.code.size);
    }
}

TEST(CodeGenerator, DataStaysInRegion)
{
    CodeGenerator gen(3, 7);
    Region data{0x200000, 32768};
    for (auto pat :
         {PatternKind::Sequential, PatternKind::Random,
          PatternKind::PointerChase, PatternKind::Hot}) {
        gen.pushCompute(basicProfile(), 5000, data, pat);
        while (!gen.done()) {
            MicroOp op = gen.next();
            if (op.cls == OpClass::Load ||
                op.cls == OpClass::Store) {
                ASSERT_GE(op.effAddr, data.base);
                ASSERT_LT(op.effAddr, data.base + data.size);
            }
        }
    }
}

TEST(CodeGenerator, SequentialCursorPersistsAcrossItems)
{
    // A streaming workload split into blocks keeps walking forward
    // (regression: art/swim restarted each block and fit in L2).
    CodeGenerator gen(5, 8);
    Region data{0x300000, 1 << 20};
    CodeProfile p = basicProfile();
    std::set<Addr> lines;
    for (int block = 0; block < 10; ++block) {
        gen.pushCompute(p, 5000, data, PatternKind::Sequential);
        while (!gen.done()) {
            MicroOp op = gen.next();
            if (op.cls == OpClass::Load ||
                op.cls == OpClass::Store) {
                lines.insert(op.effAddr >> 6);
            }
        }
    }
    // ~10 * 5000 * 0.4 accesses at 64B stride: far more than one
    // block's worth of distinct lines.
    EXPECT_GT(lines.size(), 10000u);
}

TEST(CodeGenerator, HotPatternConcentratesAccesses)
{
    CodeGenerator gen(11, 10);
    Region data{0x400000, 100 * 64};
    gen.pushCompute(basicProfile(), 30000, data, PatternKind::Hot);
    std::uint64_t hot = 0;
    std::uint64_t total = 0;
    while (!gen.done()) {
        MicroOp op = gen.next();
        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            ++total;
            if (op.effAddr < data.base + data.size / 10)
                ++hot;
        }
    }
    // 90% hot + 10% uniform(includes hot): ~91%.
    EXPECT_GT(hot / double(total), 0.85);
}

TEST(CodeGenerator, PointerChaseSerializesLoads)
{
    CodeGenerator gen(13, 11);
    gen.pushCompute(basicProfile(), 10000, Region{0x500000, 65536},
                    PatternKind::PointerChase);
    std::uint64_t dependent_loads = 0;
    std::uint64_t loads = 0;
    while (!gen.done()) {
        MicroOp op = gen.next();
        if (op.cls == OpClass::Load) {
            ++loads;
            dependent_loads += (op.depDist > 0);
        }
    }
    // Every chase load (except possibly the first) carries a
    // dependence on the previous load.
    EXPECT_GT(dependent_loads, loads * 9 / 10);
}

TEST(CodeGenerator, CopyAlternatesLoadStore)
{
    CodeGenerator gen(17, 12);
    Region src{0x600000, 4096};
    Region dst{0x700000, 4096};
    gen.pushCopy(basicProfile(), 256, src, dst);
    std::vector<MicroOp> ops;
    while (!gen.done())
        ops.push_back(gen.next());
    ASSERT_EQ(ops.size(), 64u);  // 16 units * 4
    for (std::size_t i = 0; i < ops.size(); i += 4) {
        EXPECT_EQ(ops[i].cls, OpClass::Load);
        EXPECT_TRUE(src.contains(ops[i].effAddr));
        EXPECT_EQ(ops[i + 1].cls, OpClass::Store);
        EXPECT_TRUE(dst.contains(ops[i + 1].effAddr));
        EXPECT_EQ(ops[i + 1].depDist, 1);
        EXPECT_EQ(ops[i + 2].cls, OpClass::IntAlu);
        EXPECT_EQ(ops[i + 3].cls, OpClass::Branch);
        EXPECT_TRUE(ops[i + 3].taken);
    }
}

TEST(CodeGenerator, ItemsServeInFifoOrder)
{
    CodeGenerator gen(19, 13);
    Region a{0x600000, 4096};
    Region b{0x700000, 4096};
    CodeProfile p = basicProfile();
    p.loadFrac = 1.0;  // every op is a load: addresses identify items
    p.storeFrac = p.branchFrac = p.fpFrac = 0.0;
    gen.pushCompute(p, 10, a);
    gen.pushCompute(p, 10, b);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(a.contains(gen.next().effAddr));
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(b.contains(gen.next().effAddr));
    EXPECT_TRUE(gen.done());
}

/** nextBlock() is the batched spelling of next(): for any block
 *  capacity — including interleaving the two — it must produce the
 *  identical op sequence (same RNG draws, same values, same item
 *  boundaries). This is the contract the Machine's batched run loop
 *  rests on. */
TEST(CodeGenerator, NextBlockMatchesNextExactly)
{
    auto plan = [](CodeGenerator &gen) {
        CodeProfile p = basicProfile();
        gen.pushCompute(p, 500, Region{0x8000, 64 * 1024},
                        PatternKind::Random);
        gen.pushCopy(p, 777, Region{0x8000, 4096},
                     Region{0x20000, 4096});
        gen.pushCompute(p, 301, Region{0x40000, 8192},
                        PatternKind::Hot);
        gen.pushCompute(p, 7, Region{0x50000, 4096},
                        PatternKind::PointerChase);
    };

    CodeGenerator ref(23, 5);
    plan(ref);
    std::vector<MicroOp> want;
    while (!ref.done())
        want.push_back(ref.next());

    for (std::size_t cap : {std::size_t(1), std::size_t(3),
                            std::size_t(7), std::size_t(64)}) {
        CodeGenerator gen(23, 5);
        plan(gen);
        std::vector<MicroOp> got;
        MicroOp buf[64];
        bool interleave = false;
        while (!gen.done()) {
            // Alternate block fetches with single next() calls so
            // the equivalence also holds for mixed use.
            if (interleave && cap > 1) {
                got.push_back(gen.next());
            } else {
                std::size_t n = gen.nextBlock(buf, cap);
                ASSERT_GT(n, 0u);
                got.insert(got.end(), buf, buf + n);
            }
            interleave = !interleave;
        }
        ASSERT_EQ(got.size(), want.size()) << "cap " << cap;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].pc, want[i].pc) << i;
            EXPECT_EQ(got[i].effAddr, want[i].effAddr) << i;
            EXPECT_EQ(got[i].cls, want[i].cls) << i;
            EXPECT_EQ(got[i].depDist, want[i].depDist) << i;
            EXPECT_EQ(got[i].execLat, want[i].execLat) << i;
            EXPECT_EQ(got[i].taken, want[i].taken) << i;
        }
    }
}

/**
 * A drainInto() sink that rebuilds each op as a MicroOp. With
 * kDeps false the lowering skips computing dependence distances (the
 * Machine's fast-forward sink does), so only class, pc, address,
 * branch direction and latency are comparable then.
 */
template <bool kDeps>
struct RecordingSink
{
    static constexpr bool kDepDist = kDeps;
    std::vector<MicroOp> ops;

    void
    load(Addr pc, Addr addr, std::uint8_t dep)
    {
        ops.push_back(MicroOp{pc, addr, OpClass::Load, dep, 0, false});
    }

    void
    store(Addr pc, Addr addr, std::uint8_t dep)
    {
        ops.push_back(MicroOp{pc, addr, OpClass::Store, dep, 1, false});
    }

    void
    branch(Addr pc, bool taken, std::uint8_t dep)
    {
        ops.push_back(MicroOp{pc, 0, OpClass::Branch, dep, 1, taken});
    }

    void
    other(Addr pc, OpClass cls, std::uint8_t lat, std::uint8_t dep)
    {
        ops.push_back(MicroOp{pc, 0, cls, dep, lat, false});
    }
};

/**
 * Two rounds of work on one generator: every PatternKind, copies,
 * and a second round whose Sequential items resume from the cursors
 * the first round left in seqCursors. @p drain consumes each round.
 */
template <class Drain>
void
lowerTwoRounds(CodeGenerator &gen, Drain drain)
{
    CodeProfile p = basicProfile();
    CodeProfile chase = basicProfile();
    chase.loadFrac = 0.6;  // long load chains
    chase.depDistMean = 1.0;  // p = 1: geometric() draws nothing
    const Region seq{0x60000, 8192};
    gen.pushCompute(p, 700, seq, PatternKind::Sequential, 48);
    gen.pushCompute(p, 500, Region{0x8000, 64 * 1024},
                    PatternKind::Random);
    gen.pushCopy(p, 777, Region{0x8000, 4096}, Region{0x20000, 4096});
    gen.pushCompute(p, 301, Region{0x40000, 8192}, PatternKind::Hot);
    gen.pushCompute(chase, 257, Region{0x50000, 4096},
                    PatternKind::PointerChase);
    drain(gen);
    gen.pushCompute(p, 333, seq, PatternKind::Sequential, 48);
    gen.pushCopy(p, 100, Region{0x70000, 64}, Region{0x71000, 0});
    gen.pushCompute(p, 129, seq, PatternKind::Sequential, 48);
    gen.pushCompute(p, 90, Region{0x90000, 0}, PatternKind::Random);
    drain(gen);
    // One more item shows the RNG stream ends in the same place.
    gen.pushCompute(p, 64, Region{0x8000, 4096}, PatternKind::Random);
    drain(gen);
}

/** The fused sink path sees exactly the stream nextBlock() yields:
 *  same (class, pc, address, direction) for every op, whether or not
 *  the sink asks for dependence distances, in any chunking. */
TEST(CodeGenerator, DrainIntoSinkMatchesNextBlock)
{
    for (std::uint64_t seed : {1ULL, 23ULL, 42ULL, 977ULL}) {
        std::vector<MicroOp> want;
        CodeGenerator ref(seed, 5);
        lowerTwoRounds(ref, [&](CodeGenerator &gen) {
            MicroOp buf[64];
            while (std::size_t n = gen.nextBlock(buf, 64))
                want.insert(want.end(), buf, buf + n);
        });

        auto check = [&](auto sink, std::uint64_t cap) {
            constexpr bool deps = decltype(sink)::kDepDist;
            CodeGenerator gen(seed, 5);
            lowerTwoRounds(gen, [&](CodeGenerator &g) {
                while (g.drainInto(sink, cap) != 0) {
                }
            });
            ASSERT_EQ(sink.ops.size(), want.size()) << seed;
            for (std::size_t i = 0; i < want.size(); ++i) {
                const MicroOp &got = sink.ops[i];
                ASSERT_EQ(got.cls, want[i].cls) << seed << " " << i;
                ASSERT_EQ(got.pc, want[i].pc) << seed << " " << i;
                ASSERT_EQ(got.effAddr, want[i].effAddr)
                    << seed << " " << i;
                ASSERT_EQ(got.taken, want[i].taken) << seed << " " << i;
                ASSERT_EQ(got.execLat, want[i].execLat)
                    << seed << " " << i;
                if (deps) {
                    ASSERT_EQ(got.depDist, want[i].depDist)
                        << seed << " " << i;
                }
            }
        };
        for (std::uint64_t cap : {1ULL, 7ULL, ~0ULL}) {
            check(RecordingSink<true>{}, cap);
            check(RecordingSink<false>{}, cap);
        }
    }
}

/** Generators on different threads share the process-wide geometric
 *  tables. Four threads lower the same plans at once, using
 *  dep-distance means no other test uses, so their first-use table
 *  builds race; each thread's op stream must equal a serial
 *  reference lowered afterwards. */
TEST(CodeGenerator, ConcurrentFirstUseMatchesSerial)
{
    auto lower = [] {
        CodeGenerator gen(31, 9);
        for (double mean : {7.25, 9.5, 11.75}) {
            CodeProfile p = basicProfile();
            p.depChance = 0.6;
            p.depDistMean = mean;
            gen.pushCompute(p, 4000, Region{0x8000, 64 * 1024},
                            PatternKind::Random);
        }
        std::vector<MicroOp> ops;
        MicroOp buf[64];
        while (std::size_t n = gen.nextBlock(buf, 64))
            ops.insert(ops.end(), buf, buf + n);
        return ops;
    };

    constexpr int kThreads = 4;
    std::vector<std::vector<MicroOp>> got(kThreads);
    std::atomic<int> waiting{kThreads};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            waiting.fetch_sub(1);
            while (waiting.load() > 0)
                std::this_thread::yield();
            got[t] = lower();
        });
    }
    for (auto &th : threads)
        th.join();

    auto same = [](const MicroOp &a, const MicroOp &b) {
        return a.pc == b.pc && a.effAddr == b.effAddr &&
               a.cls == b.cls && a.depDist == b.depDist &&
               a.execLat == b.execLat && a.taken == b.taken;
    };
    std::vector<MicroOp> want = lower();
    ASSERT_EQ(want.size(), 12000u);
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), want.size()) << "thread " << t;
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(same(got[t][i], want[i])) << t << ":" << i;
    }
}

} // namespace
} // namespace osp
