/**
 * @file
 * The content-addressed sweep-cell result cache — the layer that
 * turns the persistent store directory (driver/store_dir) into
 * *incremental sweeps*.
 *
 * Every sweep cell's simulation is a pure function of (expanded
 * cell spec, seed, simulator code, trace capacity, warm-start
 * profile). The cache addresses each cell by a stable 64-bit hash
 * of exactly that tuple, serialized canonically (util/hash.hh over
 * the compact JSON of the context — reproducible from Python), and
 * keeps it in one sealed file:
 *
 *     <store>/cell/<code-fingerprint>/<16-hex-digit key>
 *
 * The code fingerprint — a hash of the simulator sources, baked in
 * at build time (or overridden via --fingerprint for tests) — is
 * part of the key path, so any source change orphans every cached
 * cell; commitResults() deletes such stale directories (each file
 * counted as an eviction). A fetched file must pass its trailer
 * check, decode (driver/cell_io) and match the request's cell
 * coordinates; a torn file, a bit flip or even a hash collision
 * degrades to a miss, never a wrong result.
 *
 * Determinism: the cache sits entirely on the sweep's driving
 * thread (lookups before the pool starts, one commit after the
 * join), and a hit reproduces the exact CellResult bytes
 * a fresh run would have produced — so a fully-warm incremental
 * sweep's results.json is byte-identical to a cold run's at every
 * thread count. Volatile statistics (hits/misses/bytes) are kept
 * out of the results document; they live in the cache's own
 * telemetry registry, dumped separately via statsToJson()
 * ("ospredict-store-stats-v1", the --store-stats file).
 */

#ifndef OSP_DRIVER_CELL_CACHE_HH
#define OSP_DRIVER_CELL_CACHE_HH

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "sweep.hh"
#include "util/json.hh"

namespace osp
{

class CellCache
{
  public:
    /**
     * @param store            the store directory (shared with the
     *                         PLT archive; this layer only touches
     *                         its "cell/" subdirectory)
     * @param code_fingerprint hex hash of the simulator sources;
     *                         throws std::invalid_argument unless it
     *                         is one plain path component
     */
    CellCache(std::filesystem::path store,
              std::string code_fingerprint);

    /** Register the warm-start profile hash for @p workload:
     *  accelerated cells of that workload get the hash folded into
     *  their cache identity. */
    void setWarmProfileHash(const std::string &workload,
                            std::uint64_t hash);

    /** The 16-hex-digit content hash of one cell (see file
     *  comment). Pure; identical for every thread count. */
    std::string cellKey(const SweepSpec &spec,
                        const SweepCell &cell,
                        std::size_t trace_capacity) const;

    /** The file that holds a cell key's result. */
    std::filesystem::path cellPath(const std::string &cell_key) const;

    /**
     * Look up a cached result by cell key, verifying the decoded
     * cell coordinates against @p cell. Counts a hit or a miss.
     */
    std::optional<CellResult> fetch(const std::string &cell_key,
                                    const SweepCell &cell);

    /** Count cells that will run without a lookup (a cold,
     *  non-incremental recording pass). */
    void noteMisses(std::uint64_t n);

    /**
     * Write one file per executed cell and delete every other code
     * fingerprint's cell directory (each file counted as an
     * eviction). Failed cells are the caller's responsibility to
     * exclude — a cached failure would never be retried.
     */
    void commitResults(
        const std::vector<std::pair<std::string,
                                    const CellResult *>> &items);

    const std::string &fingerprint() const { return fingerprint_; }

    /** Volatile cache statistics (hits/misses/inserts/evictions/
     *  bytes), as telemetry counters under component "cell_cache". */
    const obs::Registry &registry() const { return registry_; }

    /**
     * The --store-stats document ("ospredict-store-stats-v1"): the
     * cache counters. Volatile by design — never part of
     * results.json.
     */
    JsonValue statsToJson() const;

  private:
    std::filesystem::path store_;
    std::string fingerprint_;
    std::map<std::string, std::uint64_t> warmProfileHash_;
    obs::Registry registry_;
};

} // namespace osp

#endif // OSP_DRIVER_CELL_CACHE_HH
