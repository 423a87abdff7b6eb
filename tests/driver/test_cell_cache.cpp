/** @file Tests for the content-addressed sweep-cell cache, its codec
 *  and the store directory: lossless CellResult round-trips,
 *  cell-key purity (the same key at every thread count), warm/cold
 *  byte-identity of the results document, hash-collision safety,
 *  fingerprint eviction, and failing closed on torn, bit-flipped or
 *  crash-interrupted cell files. */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "driver/cell_cache.hh"
#include "driver/cell_io.hh"
#include "driver/experiments.hh"
#include "driver/store_dir.hh"
#include "driver/sweep.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

class CellCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("osp_cache_test_" +
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

/** Canonical (timing-free) results document bytes. */
std::string
canonicalJson(const SweepResult &result)
{
    JsonOptions jopts;
    jopts.includeTiming = false;
    std::ostringstream os;
    writeResultsJson(os, result, jopts);
    return os.str();
}

TEST_F(CellCacheTest, CellCodecRoundTripsByteExactly)
{
    SweepSpec spec = tinySpec();
    // Tracing on: the codec must carry trace events too.
    for (const SweepCell &cell : expandSweep(spec)) {
        CellResult original = runCell(spec, cell, 256);
        ASSERT_FALSE(original.failed) << cell.workload;

        std::string encoded = encodeCellResult(original);
        std::optional<CellResult> decoded =
            decodeCellResult(encoded);
        ASSERT_TRUE(decoded.has_value()) << cell.workload;

        // Byte-exact fixpoint: encode(decode(encode(x))) ==
        // encode(x) proves every carried field round-trips
        // losslessly (doubles included).
        EXPECT_EQ(encodeCellResult(*decoded), encoded)
            << cell.workload;
        EXPECT_EQ(decoded->cell.index, original.cell.index);
        EXPECT_EQ(decoded->totals.appCycles,
                  original.totals.appCycles);
        EXPECT_EQ(decoded->pltProfile, original.pltProfile);
        EXPECT_EQ(decoded->trace.size(), original.trace.size());
    }
}

TEST_F(CellCacheTest, CodecRejectsGarbageAsNullopt)
{
    EXPECT_EQ(decodeCellResult(""), std::nullopt);
    EXPECT_EQ(decodeCellResult("not json at all"), std::nullopt);
    EXPECT_EQ(decodeCellResult("{}"), std::nullopt);
    EXPECT_EQ(decodeCellResult("{\"schema\":\"wrong-v9\"}"),
              std::nullopt);
    EXPECT_EQ(decodeCellResult("[1,2,3]"), std::nullopt);
}

TEST_F(CellCacheTest, CellKeysArePureAndDistinct)
{
    SweepSpec spec = tinySpec();
    CellCache cache(dir_, "f00d");
    auto cells = expandSweep(spec);

    std::set<std::string> keys;
    for (const SweepCell &cell : cells) {
        std::string key = cache.cellKey(spec, cell, 0);
        EXPECT_EQ(key.size(), 16u);
        // Purity: recomputing gives the same key (nothing volatile
        // — no clocks, no pointers — leaks into the context).
        EXPECT_EQ(cache.cellKey(spec, cell, 0), key);
        keys.insert(key);
    }
    // Distinct cells address distinct slots.
    EXPECT_EQ(keys.size(), cells.size());

    // The key depends on what changes the simulation...
    SweepSpec reseeded = tinySpec();
    reseeded.baseSeed = spec.baseSeed + 1;
    auto reseeded_cells = expandSweep(reseeded);
    EXPECT_NE(cache.cellKey(reseeded, reseeded_cells[0], 0),
              cache.cellKey(spec, cells[0], 0));
    EXPECT_NE(cache.cellKey(spec, cells[0], 4096),
              cache.cellKey(spec, cells[0], 0));

    // ...but not on presentation-only fields.
    SweepSpec renamed = tinySpec();
    renamed.name = "tiny-renamed";
    auto renamed_cells = expandSweep(renamed);
    EXPECT_EQ(cache.cellKey(renamed, renamed_cells[0], 0),
              cache.cellKey(spec, cells[0], 0));
}

TEST_F(CellCacheTest, WarmIncrementalRunIsByteIdenticalAcrossThreads)
{
    SweepSpec spec = tinySpec();
    CellCache cache(dir_, "f00d");

    // Cold recording run on one thread.
    RunnerOptions cold_opts;
    cold_opts.threads = 1;
    cold_opts.cache = &cache;
    SweepResult cold = runSweep(spec, cold_opts);
    ASSERT_TRUE(cold.store.present);
    ASSERT_EQ(cold.store.cellKeys.size(), cold.cells.size());
    EXPECT_EQ(cache.registry().snapshot().counterValue(
                  "cell_cache", "inserts"),
              cold.cells.size());

    // Warm incremental run on four threads: every cell a hit, and
    // the canonical document byte-identical — the store section's
    // keys included, proving keys are thread-count invariant.
    CellCache warm_cache(dir_, "f00d");
    RunnerOptions warm_opts;
    warm_opts.threads = 4;
    warm_opts.cache = &warm_cache;
    warm_opts.incremental = true;
    SweepResult warm = runSweep(spec, warm_opts);

    EXPECT_EQ(canonicalJson(warm), canonicalJson(cold));
    auto snap = warm_cache.registry().snapshot();
    EXPECT_EQ(snap.counterValue("cell_cache", "hits"),
              cold.cells.size());
    EXPECT_EQ(snap.counterValue("cell_cache", "misses"), 0u);
}

TEST_F(CellCacheTest, ColdNonIncrementalRunCountsAllMisses)
{
    SweepSpec spec = tinySpec();
    CellCache cache(dir_, "f00d");
    RunnerOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    SweepResult result = runSweep(spec, opts);
    auto snap = cache.registry().snapshot();
    EXPECT_EQ(snap.counterValue("cell_cache", "misses"),
              result.cells.size());
    EXPECT_EQ(snap.counterValue("cell_cache", "hits"), 0u);
}

TEST_F(CellCacheTest, CollisionOnMismatchedCellDegradesToMiss)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    CellResult real = runCell(spec, cells[0]);

    CellCache cache(dir_, "f00d");
    std::string key = cache.cellKey(spec, cells[0], 0);
    cache.commitResults({{key, &real}});

    // The right cell fetches...
    EXPECT_TRUE(cache.fetch(key, cells[0]).has_value());
    // ...but the same key presented for different coordinates (a
    // simulated 64-bit collision) must degrade to a miss, never a
    // wrong result.
    ASSERT_GT(cells.size(), 1u);
    EXPECT_EQ(cache.fetch(key, cells[1]), std::nullopt);
}

TEST_F(CellCacheTest, FetchRewritesIndexToCurrentExpansion)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    CellResult real = runCell(spec, cells[0]);

    CellCache cache(dir_, "f00d");
    std::string key = cache.cellKey(spec, cells[0], 0);
    cache.commitResults({{key, &real}});

    SweepCell moved = cells[0];
    moved.index = 17;  // same coordinates, new position
    std::optional<CellResult> hit = cache.fetch(key, moved);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cell.index, 17u);
}

TEST_F(CellCacheTest, StaleFingerprintEntriesAreEvictedOnCommit)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    CellResult real = runCell(spec, cells[0]);

    CellCache old_cache(dir_, "0ld0ld0ld0ld0ld0");
    old_cache.commitResults(
        {{old_cache.cellKey(spec, cells[0], 0), &real}});

    // A new simulator build commits: the old build's entries go.
    CellCache new_cache(dir_, "new1new1new1new1");
    new_cache.commitResults(
        {{new_cache.cellKey(spec, cells[0], 0), &real}});
    EXPECT_EQ(new_cache.registry().snapshot().counterValue(
                  "cell_cache", "evictions"),
              1u);

    EXPECT_FALSE(std::filesystem::exists(dir_ / "cell" /
                                         "0ld0ld0ld0ld0ld0"));
    auto files = std::filesystem::directory_iterator(
        dir_ / "cell" / "new1new1new1new1");
    EXPECT_EQ(std::distance(files, {}), 1);

    // A fingerprint names a directory beside the others, so one
    // that is not a plain path component is refused.
    for (const char *bad : {"", "a/b", "..", ".hidden"})
        EXPECT_THROW(CellCache(dir_, bad), std::invalid_argument)
            << bad;
}

TEST_F(CellCacheTest, WarmProfileHashChangesAcceleratedIdentity)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    const SweepCell *accel = nullptr;
    const SweepCell *full = nullptr;
    for (const SweepCell &c : cells) {
        if (c.mode == RunMode::Accelerated && !accel)
            accel = &c;
        if (c.mode == RunMode::Full && !full)
            full = &c;
    }
    ASSERT_NE(accel, nullptr);
    ASSERT_NE(full, nullptr);

    CellCache plain(dir_, "f00d");
    CellCache warmed(dir_, "f00d");
    warmed.setWarmProfileHash(accel->workload, 0x1234);

    // Warm-started accelerated cells never alias cold ones...
    EXPECT_NE(warmed.cellKey(spec, *accel, 0),
              plain.cellKey(spec, *accel, 0));
    // ...while baseline cells (which never load a profile) keep
    // their identity.
    EXPECT_EQ(warmed.cellKey(spec, *full, 0),
              plain.cellKey(spec, *full, 0));
}

TEST_F(CellCacheTest, StoreStatsDocumentShape)
{
    CellCache cache(dir_, "f00d");
    cache.noteMisses(3);
    JsonValue stats = cache.statsToJson();
    EXPECT_EQ(stats["schema"].asString(),
              "ospredict-store-stats-v1");
    EXPECT_EQ(stats["fingerprint"].asString(), "f00d");
    EXPECT_EQ(stats["cache"]["misses"].asUint(), 3u);
    EXPECT_EQ(stats["cache"]["hits"].asUint(), 0u);
    EXPECT_EQ(stats["cache"]["evictions"].asUint(), 0u);
    // Only the cache counters: the store has no page-level state.
    EXPECT_EQ(stats.members().size(), 3u);
}

/** The raw bytes of @p file. */
std::string
readBytes(const std::filesystem::path &file)
{
    std::ifstream in(file, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::filesystem::path &file, const std::string &bytes)
{
    std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;
}

TEST_F(CellCacheTest, CellFileMutationsAreMisses)
{
    // A real cell file, recorded by a real (one-cell) commit.
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    CellResult real = runCell(spec, cells[0]);
    CellCache cache(dir_, "f00d");
    std::string key = cache.cellKey(spec, cells[0], 0);
    cache.commitResults({{key, &real}});
    const std::filesystem::path file = cache.cellPath(key);
    const std::string sealed = readBytes(file);
    const std::string payload = encodeCellResult(real);
    ASSERT_EQ(unsealPayload(sealed), payload);
    ASSERT_TRUE(cache.fetch(key, cells[0]).has_value());

    // Every mutation goes through the trailer check; every 64th one
    // also through the cache, which must count it as a miss. The
    // payload, mutated the same way but without its trailer, goes
    // to the decoder, which may return nullopt or a value but must
    // never crash (the sanitizer builds run this).
    std::uint64_t fetched = 0;
    auto check = [&](const std::string &mutated,
                     const std::string &mutated_payload,
                     std::size_t n) {
        EXPECT_EQ(unsealPayload(mutated), std::nullopt) << n;
        (void)decodeCellResult(mutated_payload);
        if (n % 64 == 0) {
            writeBytes(file, mutated);
            EXPECT_EQ(cache.fetch(key, cells[0]), std::nullopt) << n;
            ++fetched;
        }
    };
    for (std::size_t len = 0; len < sealed.size(); ++len)
        check(sealed.substr(0, len),
              payload.substr(0, std::min(len, payload.size())), len);
    Pcg32 rng(42);
    for (std::size_t n = 0; n < 1000; ++n) {
        std::string mutated = sealed;
        std::string mutated_payload = payload;
        std::size_t pos =
            rng.range(static_cast<std::uint32_t>(sealed.size()));
        char flip = static_cast<char>(1 + rng.range(255));
        mutated[pos] ^= flip;
        if (pos < payload.size())
            mutated_payload[pos] ^= flip;
        check(mutated, mutated_payload, n);
    }
    auto snap = cache.registry().snapshot();
    EXPECT_EQ(snap.counterValue("cell_cache", "misses"), fetched);
    EXPECT_EQ(snap.counterValue("cell_cache", "hits"), 1u);
}

TEST_F(CellCacheTest, CorruptCellFilesAreResimulatedAndOverwritten)
{
    SweepSpec spec = tinySpec();
    CellCache cache(dir_, "f00d");
    RunnerOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    SweepResult cold = runSweep(spec, opts);
    ASSERT_GE(cold.store.cellKeys.size(), 4u);

    // A torn file, a bit flip, and a whole file recorded for a
    // different cell (valid trailer, wrong coordinates).
    const auto &keys = cold.store.cellKeys;
    std::filesystem::resize_file(cache.cellPath(keys[0]), 40);
    std::string flipped = readBytes(cache.cellPath(keys[1]));
    flipped[flipped.size() / 2] ^= 0x20;
    writeBytes(cache.cellPath(keys[1]), flipped);
    std::filesystem::copy_file(
        cache.cellPath(keys[3]),
        cache.cellPath(keys[2]),
        std::filesystem::copy_options::overwrite_existing);

    CellCache warm(dir_, "f00d");
    opts.cache = &warm;
    opts.incremental = true;
    SweepResult replay = runSweep(spec, opts);
    EXPECT_EQ(canonicalJson(replay), canonicalJson(cold));
    auto snap = warm.registry().snapshot();
    EXPECT_EQ(snap.counterValue("cell_cache", "misses"), 3u);
    EXPECT_EQ(snap.counterValue("cell_cache", "inserts"), 3u);

    // The re-simulated cells overwrote the bad files.
    CellCache again(dir_, "f00d");
    opts.cache = &again;
    EXPECT_EQ(canonicalJson(runSweep(spec, opts)), canonicalJson(cold));
    EXPECT_EQ(again.registry().snapshot().counterValue("cell_cache",
                                                       "misses"),
              0u);
}

TEST_F(CellCacheTest, StaleFingerprintFilesNeverReplay)
{
    SweepSpec spec = tinySpec();
    CellCache old_cache(dir_, "0ld0ld0ld0ld0ld0");
    RunnerOptions opts;
    opts.threads = 2;
    opts.cache = &old_cache;
    runSweep(spec, opts);

    // A new build over the old build's store: every cell is a miss
    // and re-simulated, and the old build's files are evicted.
    CellCache new_cache(dir_, "new1new1new1new1");
    opts.cache = &new_cache;
    opts.incremental = true;
    SweepResult replay = runSweep(spec, opts);
    auto snap = new_cache.registry().snapshot();
    EXPECT_EQ(snap.counterValue("cell_cache", "hits"), 0u);
    EXPECT_EQ(snap.counterValue("cell_cache", "misses"),
              replay.cells.size());
    EXPECT_EQ(snap.counterValue("cell_cache", "evictions"),
              replay.cells.size());
    EXPECT_FALSE(std::filesystem::exists(dir_ / "cell" /
                                         "0ld0ld0ld0ld0ld0"));
}

TEST_F(CellCacheTest, SigkilledCommitLeavesReplayableStore)
{
    SweepSpec spec = tinySpec();
    CellCache ref_cache(dir_ / "ref", "f00d");
    RunnerOptions opts;
    opts.threads = 2;
    opts.cache = &ref_cache;
    SweepResult cold = runSweep(spec, opts);
    const std::size_t half = cold.cells.size() / 2;
    const std::filesystem::path crashed = dir_ / "crashed";

    // The child commits half the cells, is half-way through writing
    // the next one's temporary file, and is SIGKILLed.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        CellCache cache(crashed, "f00d");
        std::vector<std::pair<std::string, const CellResult *>> items;
        for (std::size_t i = 0; i < half; ++i)
            items.emplace_back(cold.store.cellKeys[i], &cold.cells[i]);
        cache.commitResults(items);
        std::filesystem::path next =
            cache.cellPath(cold.store.cellKeys[half]);
        std::string sealed =
            sealPayload(encodeCellResult(cold.cells[half]));
        writeBytes(next.parent_path() /
                       ("." + next.filename().string() + ".1.tmp"),
                   sealed.substr(0, sealed.size() / 2));
        ::raise(SIGKILL);
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    CellCache warm(crashed, "f00d");
    opts.cache = &warm;
    opts.incremental = true;
    opts.threads = 3;
    EXPECT_EQ(canonicalJson(runSweep(spec, opts)), canonicalJson(cold));
    auto snap = warm.registry().snapshot();
    EXPECT_EQ(snap.counterValue("cell_cache", "hits"), half);
    EXPECT_EQ(snap.counterValue("cell_cache", "misses"),
              cold.cells.size() - half);
}

TEST(StoreDir, OpenCreatesDirectoryAndRejectsPageStoreFile)
{
    auto base = std::filesystem::temp_directory_path() /
                "osp_store_dir_open_test";
    std::filesystem::remove_all(base);

    // Absent: created, parents included; present: reused.
    auto dir = base / "nested" / "store";
    EXPECT_EQ(openStoreDir(dir.string()), dir);
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_EQ(openStoreDir(dir.string()), dir);

    // A regular file is a store in the removed single-file format:
    // it fails closed and is left untouched.
    auto old = base / "old.db";
    writeBytes(old, "page store bytes");
    try {
        openStoreDir(old.string());
        ADD_FAILURE() << "a regular file opened as a store";
    } catch (const RemovedStoreFormat &e) {
        EXPECT_NE(std::string(e.what()).find("page-store format was "
                                             "removed"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(readBytes(old), "page store bytes");
    std::filesystem::remove_all(base);
}

} // namespace
} // namespace osp
