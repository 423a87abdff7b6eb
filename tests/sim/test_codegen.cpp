/** @file Tests for the work-item code generator. */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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

/** Per-(round, line) access counts and, per round, their total. */
struct LineHistogram
{
    std::map<std::pair<int, Addr>, double> lines;
    std::map<int, double> totals;

    void
    add(int round, Addr addr)
    {
        lines[{round, addr >> 6}] += 1.0;
        totals[round] += 1.0;
    }
};

/**
 * Every line's share of its round in @p drawn must match its share
 * in @p stream within five standard errors of the difference. Each
 * draw is independent; the stream's accesses come in clusters of up
 * to @p cluster consecutive accesses to one line from one draw (a
 * fetch run), which scales its variance by that factor.
 */
void
expectSameShares(const LineHistogram &stream, const LineHistogram &drawn,
                 double cluster, const char *what)
{
    std::set<std::pair<int, Addr>> keys;
    for (const auto &[key, count] : stream.lines)
        keys.insert(key);
    for (const auto &[key, count] : drawn.lines)
        keys.insert(key);
    for (const auto &key : keys) {
        const double ns = stream.totals.at(key.first);
        const double nd = drawn.totals.at(key.first);
        auto count = [&](const LineHistogram &h) {
            auto it = h.lines.find(key);
            return it == h.lines.end() ? 0.0 : it->second;
        };
        const double p = count(stream) / ns;
        const double q = count(drawn) / nd;
        // The share both would have if they agree, weighing the
        // stream as ns / cluster independent draws.
        const double pooled = (count(stream) / cluster + count(drawn)) /
                              (ns / cluster + nd);
        const double se =
            std::sqrt(pooled * (1 - pooled) * (cluster / ns + 1 / nd));
        EXPECT_LE(std::fabs(p - q), 5 * se)
            << what << " round " << key.first << " line 0x" << std::hex
            << (key.second << 6) << std::dec << ": stream " << p
            << ", drawn " << q;
    }
}

/** A whole footprint reservoir (all cap slots) is a uniform sample
 *  of the lowered stream's accesses and pcs, for every PatternKind
 *  (Sequential from a fresh and a resumed cursor), copies (a size-0
 *  destination included) and code: over many seeds, each line's
 *  share of the slots matches its share of the stream's loads and
 *  stores, and of its op pcs. The first round's plan overflows both
 *  reservoirs; the later rounds' fit. */
TEST(CodeGenerator, FootprintReservoirMatchesLoweredStream)
{
    constexpr std::uint64_t kDataCap = 512;
    constexpr std::uint64_t kCodeCap = 64;
    LineHistogram stream_data, stream_code, drawn_data, drawn_code;
    for (std::uint64_t seed = 1; seed <= 128; ++seed) {
        CodeGenerator gen(seed, 5);
        Pcg32 rng(seed, 77);
        int round = 0;
        lowerTwoRounds(gen, [&](CodeGenerator &g) {
            std::vector<Addr> data;
            std::vector<Addr> code;
            g.sampleFootprint(kDataCap, kDataCap, kCodeCap, kCodeCap,
                              rng, data, code);
            EXPECT_EQ(code.size(), std::min<std::uint64_t>(
                                       g.pendingOps() / 16, kCodeCap));
            for (Addr a : data)
                drawn_data.add(round, a);
            for (Addr pc : code)
                drawn_code.add(round, pc);
            MicroOp buf[64];
            while (std::size_t n = g.nextBlock(buf, 64)) {
                for (std::size_t i = 0; i < n; ++i) {
                    stream_code.add(round, buf[i].pc);
                    if (buf[i].cls == OpClass::Load ||
                        buf[i].cls == OpClass::Store)
                        stream_data.add(round, buf[i].effAddr);
                }
            }
            ++round;
        });
    }
    EXPECT_GT(stream_data.totals.at(0), 128 * kDataCap);
    EXPECT_GT(stream_code.totals.at(0), 128 * 16 * kCodeCap);
    expectSameShares(stream_data, drawn_data, 1, "data");
    // A fetch run puts blockRunBytes / 4 ops in a row; 16 of them
    // share each 64-byte line.
    expectSameShares(stream_code, drawn_code, 16, "code");
}

/** A reservoir that holds the whole plan keeps it in stream order:
 *  its first slots are the stream's first data addresses (a copy to
 *  a size-0 destination, then a wrapping Sequential walk), and the
 *  pcs of its every 16th op. */
TEST(CodeGenerator, FootprintSlotsFollowStreamOrder)
{
    CodeGenerator gen(11, 5);
    gen.pushCopy(basicProfile(), 64, Region{0x8000, 4096},
                 Region{0x20000, 0});
    gen.pushCompute(basicProfile(), 40, Region{0x60000, 128},
                    PatternKind::Sequential, 48);
    Pcg32 rng(11, 77);
    std::vector<Addr> data;
    std::vector<Addr> code;
    gen.sampleFootprint(1000, 12, 1000, 1000, rng, data, code);
    EXPECT_EQ(data, (std::vector<Addr>{0x8000, 0x20000, 0x8010,
                                       0x20010, 0x8020, 0x20020,
                                       0x8030, 0x20030, 0x60000,
                                       0x60030, 0x60060, 0x60000}));
    std::vector<Addr> stream_data;
    std::vector<Addr> stream_code;
    while (!gen.done()) {
        MicroOp op = gen.next();
        if (op.cls == OpClass::Load || op.cls == OpClass::Store)
            stream_data.push_back(op.effAddr);
        stream_code.push_back(op.pc);
    }
    ASSERT_GE(stream_data.size(), data.size());
    stream_data.resize(data.size());
    EXPECT_EQ(stream_data, data);
    // 16 copy ops, then 40 compute ops, all in the items' first fetch
    // runs: the 16th, 32nd and 48th ops' pcs are exact.
    ASSERT_EQ(stream_code.size(), 56u);
    EXPECT_EQ(code, (std::vector<Addr>{stream_code[15], stream_code[31],
                                       stream_code[47]}));
}

/** An empty queue, or one with no loads or stores, samples no data,
 *  and a reservoir never holds more than the plan. */
TEST(CodeGenerator, FootprintSampleOfNoAccessesIsEmpty)
{
    CodeGenerator gen(3, 5);
    Pcg32 rng(3, 77);
    std::vector<Addr> data;
    std::vector<Addr> code;
    gen.sampleFootprint(10, 10, 10, 10, rng, data, code);
    EXPECT_TRUE(data.empty());
    EXPECT_TRUE(code.empty());

    CodeProfile alu = basicProfile();
    alu.loadFrac = 0.0;
    alu.storeFrac = 0.0;
    gen.pushCompute(alu, 100, Region{0x8000, 4096});
    gen.sampleFootprint(10, 10, 1000, 1000, rng, data, code);
    EXPECT_TRUE(data.empty());
    EXPECT_EQ(code.size(), 100u / 16);
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
