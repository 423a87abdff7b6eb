/**
 * @file
 * The persistent sweep store: a plain directory of content-addressed
 * files, shared by the sweep-cell cache (driver/cell_cache) and the
 * PLT profile archive below.
 *
 *     <store>/cell/<code-fingerprint>/<16-hex-digit key>
 *         one cell's "ospredict-cell-v1" payload (driver/cell_io)
 *     <store>/plt/<workload>
 *         one archived "ospredict-profile v1" text
 *
 * Every file is sealed: its payload followed by an 8-byte
 * little-endian stableHash64 (util/hash.hh) of that payload. A file
 * is written to a temporary file in the same directory and then
 * rename(2)d into place, so a process killed at any point (SIGKILL
 * included) leaves each file either absent, whole and old, or whole
 * and new. Nothing is fsynced: after a power loss a file may be
 * torn, and its trailer check turns it into a miss. Any read that
 * fails the check is a miss, never an error and never a wrong
 * result.
 *
 * Concurrent sweeps on one store need no lock: two processes that
 * write the same cell write the same bytes, and the last rename
 * wins.
 */

#ifndef OSP_DRIVER_STORE_DIR_HH
#define OSP_DRIVER_STORE_DIR_HH

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace osp
{

/** Thrown by openStoreDir() when the path names a regular file: a
 *  store in the removed single-file page-store format. */
struct RemovedStoreFormat : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Open the store directory at @p path, creating it (and missing
 * parents) when absent. Throws RemovedStoreFormat when @p path is a
 * regular file and std::filesystem::filesystem_error when the
 * directory cannot be created.
 */
std::filesystem::path openStoreDir(const std::string &path);

/** @p payload followed by its 8-byte stableHash64 trailer. */
std::string sealPayload(std::string_view payload);

/** The payload of sealed bytes; nullopt when they are shorter than
 *  the trailer or the trailer does not match. */
std::optional<std::string> unsealPayload(std::string_view sealed);

/** The payload of the sealed file @p file; nullopt when the file is
 *  absent, unreadable or fails its trailer check. */
std::optional<std::string>
readSealedFile(const std::filesystem::path &file);

/** Atomically replace @p file with the sealed @p payload, creating
 *  its directory when absent. The temporary file is hidden (its name
 *  starts with '.'); one left behind by a killed writer is inert. */
void writeSealedFile(const std::filesystem::path &file,
                     std::string_view payload);

/** One archived profile (listing view). */
struct PltArchiveEntry
{
    std::string workload;
    std::uint64_t profileHash = 0;  //!< stableHash64(profile text)
    std::size_t bytes = 0;
};

/**
 * The PLT archive: learned per-service profiles (the text
 * Accelerator::saveState() emits), keyed by workload, so a later
 * sweep can warm-start every predictor for that workload and skip
 * the online learning phase (bench/abl5_cross_run.cpp, done
 * persistently).
 *
 * Warm-starting changes simulated results, so the sweep runner
 * folds the profile text's stable hash into each warm cell's
 * identity (driver/cell_cache): cells simulated with a profile
 * never alias cells simulated without one.
 */
class PltArchive
{
  public:
    explicit PltArchive(std::filesystem::path store)
        : store_(std::move(store))
    {
    }

    /** Persist @p profile as the archived profile for @p workload,
     *  replacing any previous one. */
    void save(std::string_view workload, std::string_view profile);

    /** The archived profile for @p workload, or nullopt. */
    std::optional<std::string> load(std::string_view workload) const;

    /** Every intact archived profile, in workload order. */
    std::vector<PltArchiveEntry> list() const;

    /** Remove the profile for @p workload; false when absent. */
    bool remove(std::string_view workload);

    /** The store-relative path of @p workload's profile. Throws
     *  std::invalid_argument unless @p workload is one plain path
     *  component. */
    static std::string key(std::string_view workload);

  private:
    std::filesystem::path store_;
};

} // namespace osp

#endif // OSP_DRIVER_STORE_DIR_HH
