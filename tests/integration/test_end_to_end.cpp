/** @file End-to-end integration tests: the full paper pipeline on
 *  scaled-down runs. */

#include <gtest/gtest.h>

#include "core/accelerator.hh"
#include "core/report.hh"
#include "workload/registry.hh"

namespace osp
{
namespace
{

constexpr double testScale = 0.4;

struct Pair
{
    RunTotals full;
    RunTotals accel;
};

Pair
runPair(const std::string &workload,
        RelearnStrategy strategy = RelearnStrategy::Statistical)
{
    MachineConfig cfg;
    cfg.seed = 42;
    auto ref = makeMachine(workload, cfg, testScale);
    Pair out;
    out.full = ref->run();

    auto fast = makeMachine(workload, cfg, testScale);
    PredictorParams pp;
    pp.warmupInvocations = 40;  // scaled-down runs, shorter warm-up
    pp.learningWindow = 60;
    pp.relearn.strategy = strategy;
    Accelerator accel(pp);
    fast->setController(&accel);
    out.accel = fast->run();
    return out;
}

class EndToEnd : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EndToEnd, InstructionCountsMatchExactly)
{
    auto pair = runPair(GetParam());
    // Emulated OS services execute the identical instruction
    // stream: the accelerated run's instruction counts are exact.
    EXPECT_EQ(pair.accel.totalInsts(), pair.full.totalInsts());
    EXPECT_EQ(pair.accel.osInsts, pair.full.osInsts);
    EXPECT_EQ(pair.accel.osInvocations, pair.full.osInvocations);
}

TEST_P(EndToEnd, PredictsExecutionTimeClosely)
{
    auto pair = runPair(GetParam());
    double err = absError(
        static_cast<double>(pair.accel.totalCycles()),
        static_cast<double>(pair.full.totalCycles()));
    // The paper reports 3.2% average / 4.2% worst at full scale;
    // leave margin for the scaled-down runs.
    EXPECT_LT(err, 0.12) << GetParam();
}

TEST_P(EndToEnd, AchievesUsefulCoverage)
{
    auto pair = runPair(GetParam());
    EXPECT_GT(pair.accel.coverage(), 0.3) << GetParam();
    EXPECT_GT(estimatedSpeedup(pair.accel), 1.2) << GetParam();
}

TEST_P(EndToEnd, MissRatePredictionsTrackReality)
{
    auto pair = runPair(GetParam());
    auto full = pair.full.combinedMem();
    auto accel = pair.accel.combinedMem();
    auto rate = [](std::uint64_t m, std::uint64_t a) {
        return a ? static_cast<double>(m) / static_cast<double>(a)
                 : 0.0;
    };
    // Fig. 9: absolute miss-rate differences within a few points on
    // the scaled-down runs (paper: <=1.4 points at full scale; the
    // short test-scale learning window carries more cold-start
    // bias, especially for kernel instruction fetch).
    EXPECT_NEAR(rate(accel.l1dMisses, accel.l1dAccesses),
                rate(full.l1dMisses, full.l1dAccesses), 0.02);
    EXPECT_NEAR(rate(accel.l1iMisses, accel.l1iAccesses),
                rate(full.l1iMisses, full.l1iAccesses), 0.035);
    EXPECT_NEAR(rate(accel.l2Misses, accel.l2Accesses),
                rate(full.l2Misses, full.l2Accesses), 0.03);
}

INSTANTIATE_TEST_SUITE_P(OsIntensive, EndToEnd,
                         ::testing::Values("ab-rand", "ab-seq", "du",
                                           "find-od", "iperf"));

TEST(EndToEndStrategies, EagerIsMostAccurateBestMatchWidest)
{
    // Fig. 11's ordering on one workload: Best-Match has the
    // highest coverage; Eager re-learns most (lowest coverage).
    auto best = runPair("ab-seq", RelearnStrategy::BestMatch);
    auto eager = runPair("ab-seq", RelearnStrategy::Eager);
    EXPECT_GE(best.accel.coverage(), eager.accel.coverage());
}

TEST(EndToEndStrategies, StatisticalBalancesCoverageAndError)
{
    auto stat = runPair("ab-seq", RelearnStrategy::Statistical);
    auto eager = runPair("ab-seq", RelearnStrategy::Eager);
    // Statistical must retain more coverage than Eager...
    EXPECT_GE(stat.accel.coverage() + 0.02,
              eager.accel.coverage());
    // ...while staying accurate.
    double err = absError(
        static_cast<double>(stat.accel.totalCycles()),
        static_cast<double>(stat.full.totalCycles()));
    EXPECT_LT(err, 0.12);
}

TEST(EndToEndDeterminism, SameSeedBitIdentical)
{
    auto a = runPair("ab-rand");
    auto b = runPair("ab-rand");
    EXPECT_EQ(a.full.totalCycles(), b.full.totalCycles());
    EXPECT_EQ(a.accel.totalCycles(), b.accel.totalCycles());
    EXPECT_EQ(a.accel.osPredicted, b.accel.osPredicted);
    EXPECT_EQ(a.accel.predictedMem.l2Misses,
              b.accel.predictedMem.l2Misses);
}

TEST(EndToEndAppOnly, UnderestimatesOsIntensiveWork)
{
    MachineConfig cfg;
    cfg.seed = 42;
    auto full = makeMachine("ab-rand", cfg, 0.2);
    Cycles full_cycles = full->run().totalCycles();
    cfg.appOnly = true;
    auto app = makeMachine("ab-rand", cfg, 0.2);
    Cycles app_cycles = app->run().totalCycles();
    // Fig. 1: app-only wildly underestimates (up to 126x in the
    // paper; >10x here even at test scale).
    EXPECT_GT(full_cycles, app_cycles * 10);
}

TEST(EndToEndPollution, FootprintBeatsNoPollution)
{
    // Full scale with default predictor parameters: the pollution
    // comparison needs long steady-state prediction periods to be
    // meaningful (see also the abl4 bench).
    MachineConfig cfg;
    cfg.seed = 42;
    auto ref = makeMachine("ab-rand", cfg, 1.0);
    Cycles full_cycles = ref->run().totalCycles();

    auto run_with = [&](PollutionPolicy policy) {
        MachineConfig c = cfg;
        c.pollutionPolicy = policy;
        auto m = makeMachine("ab-rand", c, 1.0);
        PredictorParams pp;
        pp.learningWindow = 100;
        Accelerator accel(pp);
        m->setController(&accel);
        return m->run().totalCycles();
    };

    double err_foot =
        absError(static_cast<double>(
                     run_with(PollutionPolicy::Footprint)),
                 static_cast<double>(full_cycles));
    double err_none = absError(
        static_cast<double>(run_with(PollutionPolicy::None)),
        static_cast<double>(full_cycles));
    EXPECT_LT(err_foot, err_none);
    // The paper's invalidate-app model alone underestimates the web
    // workloads badly (about -15%): the footprint installs are needed.
    double err_paper = absError(
        static_cast<double>(
            run_with(PollutionPolicy::PaperInvalidateApp)),
        static_cast<double>(full_cycles));
    EXPECT_LT(err_foot, err_paper);
}

} // namespace
} // namespace osp
