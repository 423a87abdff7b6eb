/** @file Tests for the repository's extensions beyond the paper:
 *  PLT serialization / cross-run reuse (including a fail-closed
 *  profile decoder), audit sampling, and adaptive warm-up. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/accelerator.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

ServiceMetrics
metrics(InstCount insts, Cycles cycles)
{
    ServiceMetrics m;
    m.insts = insts;
    m.cycles = cycles;
    m.mem.l2Misses = cycles / 500;
    return m;
}

std::string
profileText(const Accelerator &accel)
{
    std::ostringstream oss;
    accel.saveState(oss);
    return oss.str();
}

/** A profile saved from an accelerator trained on three services,
 *  each with three clusters of varied members. */
std::string
trainedProfile()
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 12;
    Accelerator accel(pp);
    for (int t = 0; t < 3; ++t) {
        ServiceController::IntervalOutcome o;
        o.type = static_cast<ServiceType>(t);
        o.detailed = true;
        for (std::uint64_t i = 0; i < 12; ++i) {
            o.invocation = i;
            o.insts = 1000 * (1 + i % 3) * (t + 1) + i;
            o.cycles = 3 * o.insts + 17 * i;
            o.mem.l1dMisses = i;
            o.mem.l2Misses = i / 2;
            accel.onServiceEnd(o);
        }
    }
    return profileText(accel);
}

TEST(ClusterSnapshot, RoundTripPreservesPrediction)
{
    ScaledCluster original(metrics(1000, 5000), 0.05);
    original.add(metrics(1020, 5200));
    ScaledCluster restored(original.snapshot(), 0.05);

    EXPECT_DOUBLE_EQ(restored.centroid(), original.centroid());
    EXPECT_EQ(restored.count(), original.count());
    EXPECT_EQ(restored.predict().cycles,
              original.predict().cycles);
    EXPECT_EQ(restored.predict().mem.l2Misses,
              original.predict().mem.l2Misses);
    EXPECT_TRUE(restored.matches(1010));
    EXPECT_NEAR(restored.cyclesStats().stddev(),
                original.cyclesStats().stddev(), 1e-6);
}

TEST(ProfileSerialization, SaveLoadRoundTrip)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 2;
    Accelerator trained(pp);

    ServiceController::IntervalOutcome o;
    o.type = ServiceType::SysRead;
    o.detailed = true;
    o.insts = 1000;
    o.cycles = 5000;
    o.mem.l2Misses = 10;
    trained.onServiceEnd(o);
    o.invocation = 1;
    o.cycles = 7000;
    trained.onServiceEnd(o);

    std::ostringstream oss;
    trained.saveState(oss);

    Accelerator loaded(pp);
    std::istringstream iss(oss.str());
    ASSERT_TRUE(loaded.loadState(iss));

    // The loaded accelerator predicts immediately.
    EXPECT_EQ(loaded.chooseLevel(ServiceType::SysRead),
              DetailLevel::Emulate);
    ServiceController::IntervalOutcome q;
    q.type = ServiceType::SysRead;
    q.detailed = false;
    q.insts = 1005;
    auto pred = loaded.onServiceEnd(q);
    EXPECT_EQ(pred.cycles, 6000u);
    EXPECT_EQ(pred.mem.l2Misses, 10u);
    // Untrained services still learn normally.
    EXPECT_EQ(loaded.chooseLevel(ServiceType::SysWrite),
              DetailLevel::OooCache);
}

TEST(ProfileSerialization, RejectsGarbage)
{
    Accelerator accel;
    std::istringstream bad("not-a-profile v9");
    EXPECT_FALSE(accel.loadState(bad));
    std::istringstream truncated(
        "ospredict-profile v1\nservice 0 1\n1 2 3\n");
    EXPECT_FALSE(accel.loadState(truncated));
    std::istringstream noend("ospredict-profile v1\n");
    EXPECT_FALSE(accel.loadState(noend));
}

// A row with no members (count 0) used to load as a cluster that
// predicts zero cycles, one that could also serve as the
// closest-cluster fallback.
TEST(ProfileSerialization, RejectsEmptyClusterRow)
{
    Accelerator accel;
    std::istringstream in("ospredict-profile v1\nservice 0 1\n"
                          "0 0.5 0 0 0 0 0 0 0 0 0 0\nend\n");
    EXPECT_FALSE(accel.loadState(in));
    EXPECT_EQ(profileText(accel), profileText(Accelerator()));
}

// The declared row count is untrusted. It must never size an
// allocation (2^64-1 used to throw std::length_error), and a count
// larger than the rows that follow is a truncated stream.
TEST(ProfileSerialization, RowCountBeyondRowsFailsWithoutThrowing)
{
    const std::string row = "2 1000 0 5000 0 0.2 0 0 0 0 0 0\n";
    for (const char *count : {"18446744073709551615", "3"}) {
        SCOPED_TRACE(count);
        Accelerator accel;
        std::istringstream in("ospredict-profile v1\nservice 0 " +
                              std::string(count) + "\n" + row + row +
                              "end\n");
        bool ok = true;
        EXPECT_NO_THROW(ok = accel.loadState(in));
        EXPECT_FALSE(ok);
        EXPECT_EQ(profileText(accel), profileText(Accelerator()));
    }
}

// A bad later block used to fail only after the blocks before it
// were restored, so a "rejected" profile was half loaded.
TEST(ProfileSerialization, FailedLoadLeavesAcceleratorUnchanged)
{
    Accelerator accel;
    std::istringstream good(trainedProfile());
    ASSERT_TRUE(accel.loadState(good));
    const std::string before = profileText(accel);

    std::istringstream bad("ospredict-profile v1\n"
                           "service 3 1\n"
                           "2 1000 0 5000 0 0.2 0 0 0 0 0 0\n"
                           "service 4 1\n"
                           "2 1000 zero\n"
                           "end\n");
    EXPECT_FALSE(accel.loadState(bad));
    EXPECT_EQ(profileText(accel), before);
}

// Every truncation and 1000 seeded byte flips of a real saved
// profile: each either loads or is rejected with the accelerator
// untouched, and none throws (the sanitizer builds run this).
TEST(ProfileSerialization, MutationsLoadOrLeaveAcceleratorUntouched)
{
    const std::string saved = trainedProfile();
    const std::string fresh = profileText(Accelerator());
    std::size_t loaded = 0;
    auto check = [&](const std::string &mutated, std::size_t n) {
        Accelerator accel;
        std::istringstream in(mutated);
        bool ok = false;
        EXPECT_NO_THROW(ok = accel.loadState(in)) << n;
        if (ok)
            ++loaded;
        else
            EXPECT_EQ(profileText(accel), fresh) << n;
    };
    for (std::size_t len = 0; len < saved.size(); ++len)
        check(saved.substr(0, len), len);
    // Only the prefix that drops the final newline is whole.
    EXPECT_EQ(loaded, 1u);
    Pcg32 rng(42);
    for (std::size_t n = 0; n < 1000; ++n) {
        std::string mutated = saved;
        std::size_t pos =
            rng.range(static_cast<std::uint32_t>(saved.size()));
        mutated[pos] ^= static_cast<char>(1 + rng.range(255));
        check(mutated, n);
    }
    // Flips inside a mean's digits still load.
    EXPECT_GT(loaded, 1u);
}

TEST(AuditSampling, SchedulesEveryNth)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 1;
    pp.auditEvery = 5;
    pp.auditWarmup = 0;  // cadence only; no re-warm runs
    ServicePredictor pred(pp);
    ServiceMetrics m = metrics(1000, 5000);
    pred.recordDetailed(m);
    int detailed = 0;
    for (int i = 0; i < 25; ++i)
        detailed += pred.decideDetail();
    EXPECT_EQ(detailed, 5);
}

TEST(AuditSampling, WarmupBurstPrecedesAudit)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 1;
    pp.auditEvery = 3;
    pp.auditWarmup = 2;
    ServicePredictor pred(pp);
    ServiceMetrics m = metrics(1000, 5000);
    pred.recordDetailed(m);
    ASSERT_FALSE(pred.wantsDetail());
    // Every 3rd prediction expands to a 3-run detailed burst: two
    // discarded re-warm runs, then the audited one.
    int audits_seen = 0;
    for (int i = 0; i < 30; ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(m);
        } else {
            pred.predict(1000, i);
        }
        if (pred.stats().audits >
            static_cast<std::uint64_t>(audits_seen)) {
            audits_seen = static_cast<int>(pred.stats().audits);
            // Each audit was preceded by exactly auditWarmup
            // discarded runs.
            EXPECT_EQ(pred.stats().auditWarmupRuns,
                      pred.stats().audits * pp.auditWarmup);
        }
    }
    EXPECT_GE(pred.stats().audits, 2u);
    // Warm-up runs are discarded: not learned, not audited. The
    // only learned run is the initial window.
    EXPECT_EQ(pred.stats().learnedRuns,
              1u + pred.stats().audits -
                  pred.stats().auditFailures);
    EXPECT_EQ(pred.stats().auditFailures, 0u);
}

TEST(AuditSampling, DriftTriggersRelearning)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 4;
    pp.auditEvery = 2;
    pp.auditTriggerCount = 2;
    pp.stabilityWindow = 0;
    ServicePredictor pred(pp);
    // Learn a stable behaviour point around 5000 cycles.
    for (int i = 0; i < 4; ++i) {
        pred.recordDetailed(metrics(1000, 5000));
    }
    EXPECT_FALSE(pred.wantsDetail());
    // Now the same signature costs 3x: audits must catch it.
    std::uint64_t inv = 4;
    for (int i = 0; i < 20 && !pred.wantsDetail(); ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(metrics(1000, 15000));
        } else {
            pred.predict(1000, inv);
        }
        ++inv;
    }
    EXPECT_GE(pred.stats().audits, 2u);
    EXPECT_GE(pred.stats().auditFailures, 2u);
    EXPECT_EQ(pred.stats().driftResets, 1u);
    EXPECT_TRUE(pred.wantsDetail());  // back in a learning window
}

TEST(AuditSampling, StationaryNoiseDoesNotTrigger)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 20;
    pp.auditEvery = 2;
    pp.stabilityWindow = 0;
    // This test exercises the 3-sigma audit gate alone; the
    // statistical trigger would alias with the deliberately
    // period-2 cycle pattern (audits phase-lock to one parity and
    // read a stable bias that is not there).
    pp.auditCiMinSamples = 0;
    ServicePredictor pred(pp);
    // Noisy but stationary: cycles alternate widely.
    for (int i = 0; i < 20; ++i) {
        pred.recordDetailed(metrics(1000, i % 2 ? 4000 : 6000));
    }
    std::uint64_t inv = 20;
    for (int i = 0; i < 40; ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(metrics(1000, i % 2 ? 4000 : 6000));
        } else {
            pred.predict(1000, inv);
        }
        ++inv;
    }
    // 3-sigma gating absorbs the noise.
    EXPECT_EQ(pred.stats().driftResets, 0u);
}

TEST(AuditSampling, SustainedBiasTriggersStatisticalReset)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 100;
    pp.auditEvery = 2;
    pp.auditWarmup = 0;
    pp.auditTriggerCount = 1000;  // keep the consecutive trigger out
    pp.auditCiMinSamples = 8;
    pp.stabilityWindow = 0;
    ServicePredictor pred(pp);
    // A heavy cluster: 100 members at 5000 cycles. Passing audits
    // fold into it, but 100 stale members pin the mean.
    for (int i = 0; i < 100; ++i) {
        pred.recordDetailed(metrics(1000, 5000));
    }
    EXPECT_FALSE(pred.wantsDetail());
    // Behaviour shifts to 5900 cycles (~15% off): inside the 30%
    // per-audit tolerance, so every individual audit passes — only
    // the CI on the accumulated mean error can prove the bias.
    std::uint64_t inv = 100;
    for (int i = 0; i < 100 && !pred.wantsDetail(); ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(metrics(1000, 5900));
        } else {
            pred.predict(1000, inv);
        }
        ++inv;
    }
    EXPECT_EQ(pred.stats().auditFailures, 0u);
    EXPECT_EQ(pred.stats().driftResets, 1u);
    EXPECT_TRUE(pred.wantsDetail());  // back in a learning window
}

TEST(AuditSampling, StatisticalTriggerCanBeDisabled)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 100;
    pp.auditEvery = 2;
    pp.auditWarmup = 0;
    pp.auditTriggerCount = 1000;
    pp.auditCiMinSamples = 0;  // statistical trigger off
    pp.stabilityWindow = 0;
    ServicePredictor pred(pp);
    for (int i = 0; i < 100; ++i) {
        pred.recordDetailed(metrics(1000, 5000));
    }
    std::uint64_t inv = 100;
    for (int i = 0; i < 100 && !pred.wantsDetail(); ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(metrics(1000, 5900));
        } else {
            pred.predict(1000, inv);
        }
        ++inv;
    }
    EXPECT_EQ(pred.stats().driftResets, 0u);
    EXPECT_FALSE(pred.wantsDetail());
}

TEST(AdaptiveWarmup, ExtendsWhileCpiDrifts)
{
    PredictorParams pp;
    pp.warmupInvocations = 10;
    pp.stabilityWindow = 5;
    pp.stabilityTolerance = 0.02;
    pp.maxWarmupInvocations = 200;
    pp.learningWindow = 5;
    ServicePredictor pred(pp);
    // Strongly cooling CPI: warm-up must extend past the minimum.
    std::uint64_t runs = 0;
    while (pred.wantsDetail() && runs < 300) {
        Cycles cycles = 20000 - 90 * std::min<std::uint64_t>(
                                         runs, 200);
        pred.recordDetailed(metrics(1000, cycles));
        ++runs;
    }
    // warm-up extended beyond the 10-minimum (plus 5 learning).
    EXPECT_GT(pred.stats().warmupRuns, 20u);
    EXPECT_LE(pred.stats().warmupRuns, 200u);
}

TEST(AdaptiveWarmup, StableCpiEndsAtMinimum)
{
    PredictorParams pp;
    pp.warmupInvocations = 12;
    pp.stabilityWindow = 5;
    pp.stabilityTolerance = 0.02;
    pp.learningWindow = 5;
    ServicePredictor pred(pp);
    std::uint64_t runs = 0;
    while (pred.wantsDetail() && runs < 100) {
        pred.recordDetailed(metrics(1000, 5000));
        ++runs;
    }
    EXPECT_EQ(pred.stats().warmupRuns, 12u);
}

} // namespace
} // namespace osp
