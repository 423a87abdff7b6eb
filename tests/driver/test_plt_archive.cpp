/** @file Tests for the PLT archive: save/load/list/remove semantics
 *  over the store directory, hygiene against the cell cache's files
 *  and corrupt profiles, and the headline property — warm-starting a
 *  predictor from an archived profile is deterministic (two runs
 *  from the same profile encode to identical bytes). */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "driver/cell_io.hh"
#include "driver/experiments.hh"
#include "driver/store_dir.hh"
#include "driver/sweep.hh"
#include "util/hash.hh"

namespace osp
{
namespace
{

class PltArchiveTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("osp_plt_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::filesystem::path dir_;
};

/** The small sweep the driver tests use: 2 workloads x (Full +
 *  2 accelerated predictor variants) = 6 cells. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "tiny";
    spec.workloads = {"ab-rand", "du"};
    spec.modes = {RunMode::Full, RunMode::Accelerated};
    spec.predictors = {
        {"statistical",
         experimentPredictor(RelearnStrategy::Statistical)},
        {"eager", experimentPredictor(RelearnStrategy::Eager)}};
    spec.scale = 0.2;
    return spec;
}

TEST_F(PltArchiveTest, SaveLoadRoundTrip)
{
    PltArchive archive(dir_);
    EXPECT_EQ(archive.load("du"), std::nullopt);

    archive.save("du", "ospredict-profile v1\nfake body\n");
    EXPECT_EQ(archive.load("du"),
              "ospredict-profile v1\nfake body\n");

    // Replacement, not accumulation.
    archive.save("du", "ospredict-profile v1\nnewer\n");
    EXPECT_EQ(archive.load("du"),
              "ospredict-profile v1\nnewer\n");
}

TEST_F(PltArchiveTest, ListIsSortedAndScopedToPltKeys)
{
    PltArchive archive(dir_);
    archive.save("zz-last", "profile-z");
    archive.save("aa-first", "profile-a");
    // A cell file (what the cell cache writes), a corrupt profile
    // and a temporary left by a killed writer must not leak into
    // the listing.
    writeSealedFile(dir_ / "cell" / "deadbeef" / "0123456789abcdef",
                    "{}");
    archive.save("mm-torn", "profile-m");
    std::filesystem::resize_file(dir_ / PltArchive::key("mm-torn"), 12);
    std::ofstream(dir_ / "plt" / ".aa-first.123.tmp") << "partial";

    auto entries = archive.list();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].workload, "aa-first");
    EXPECT_EQ(entries[0].profileHash, stableHash64("profile-a"));
    EXPECT_EQ(entries[0].bytes, 9u);
    EXPECT_EQ(entries[1].workload, "zz-last");
}

TEST_F(PltArchiveTest, RemoveDeletesOnlyItsWorkload)
{
    PltArchive archive(dir_);
    archive.save("a", "pa");
    archive.save("b", "pb");
    EXPECT_TRUE(archive.remove("a"));
    EXPECT_FALSE(archive.remove("a"));
    EXPECT_EQ(archive.load("a"), std::nullopt);
    EXPECT_EQ(archive.load("b"), "pb");
}

TEST_F(PltArchiveTest, KeyLayout)
{
    EXPECT_EQ(PltArchive::key("du"), "plt/du");
    // A key is one file directly under plt/.
    EXPECT_THROW(PltArchive::key(""), std::invalid_argument);
    EXPECT_THROW(PltArchive::key("../du"), std::invalid_argument);
    EXPECT_THROW(PltArchive::key(".du"), std::invalid_argument);
}

TEST_F(PltArchiveTest, ArchivedProfileSurvivesReopen)
{
    PltArchive(dir_).save("du", "persisted profile");
    PltArchive archive(dir_);
    EXPECT_EQ(archive.load("du"), "persisted profile");

    // A profile that fails its trailer check is absent, not garbage
    // fed to the predictors.
    std::filesystem::resize_file(dir_ / PltArchive::key("du"), 10);
    EXPECT_EQ(archive.load("du"), std::nullopt);
}

TEST_F(PltArchiveTest, WarmStartFromArchivedProfileIsDeterministic)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    const SweepCell *accel = nullptr;
    for (const SweepCell &c : cells) {
        if (c.mode == RunMode::Accelerated) {
            accel = &c;
            break;
        }
    }
    ASSERT_NE(accel, nullptr);

    // Cold run learns online and captures its profile...
    CellResult cold = runCell(spec, *accel);
    ASSERT_FALSE(cold.failed);
    ASSERT_FALSE(cold.pltProfile.empty());

    // ...which archives and reloads byte-exactly.
    PltArchive archive(dir_);
    archive.save(accel->workload, cold.pltProfile);
    std::optional<std::string> profile =
        archive.load(accel->workload);
    ASSERT_TRUE(profile.has_value());
    EXPECT_EQ(*profile, cold.pltProfile);

    // Warm-starting from the same archived profile is a pure
    // function: two runs encode to identical bytes (this is what
    // makes warm cells cacheable at all).
    CellResult warm1 = runCell(spec, *accel, 0, &*profile);
    CellResult warm2 = runCell(spec, *accel, 0, &*profile);
    ASSERT_FALSE(warm1.failed);
    EXPECT_EQ(encodeCellResult(warm1), encodeCellResult(warm2));
}

/** The accelerated cell of @p spec for @p workload. */
const SweepCell *
findAccel(const std::vector<SweepCell> &cells,
          const std::string &workload)
{
    for (const SweepCell &c : cells) {
        if (c.mode == RunMode::Accelerated &&
            c.workload == workload && c.predictorIndex == 0)
            return &c;
    }
    return nullptr;
}

// The abl5 scenario: warm-starting from a *stale* profile (learned
// under a different workload's behaviour) must recover through
// audits and drift resets rather than fail, and must stay
// deterministic.
TEST_F(PltArchiveTest, StaleProfileWarmStartRecovers)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    const SweepCell *donor = findAccel(cells, "du");
    const SweepCell *target = findAccel(cells, "ab-rand");
    ASSERT_NE(donor, nullptr);
    ASSERT_NE(target, nullptr);

    // The donor's profile describes du's services, not ab-rand's:
    // a stale table for the target cell.
    CellResult cold = runCell(spec, *donor);
    ASSERT_FALSE(cold.failed);
    ASSERT_FALSE(cold.pltProfile.empty());

    PltArchive archive(dir_);
    archive.save(target->workload, cold.pltProfile);
    std::optional<std::string> stale = archive.load(target->workload);
    ASSERT_TRUE(stale.has_value());

    CellResult warm1 = runCell(spec, *target, 0, &*stale);
    CellResult warm2 = runCell(spec, *target, 0, &*stale);
    ASSERT_FALSE(warm1.failed);
    EXPECT_GT(warm1.totals.totalCycles(), 0u);
    EXPECT_EQ(encodeCellResult(warm1), encodeCellResult(warm2));
}

} // namespace
} // namespace osp
