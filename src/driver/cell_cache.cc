#include "cell_cache.hh"

#include <stdexcept>
#include <system_error>

#include "cell_io.hh"
#include "store_dir.hh"
#include "util/hash.hh"

namespace osp
{

namespace
{

namespace fs = std::filesystem;

constexpr std::string_view cellDir = "cell";

// Folded into every cell key since the first persistent store, so
// keys (and the results document's store section) stay stable.
constexpr std::uint32_t storeVersion = 1;

JsonValue
relearnContext(const RelearnParams &p)
{
    JsonValue v = JsonValue::object();
    v.add("strategy", static_cast<std::uint64_t>(p.strategy));
    v.add("p_min", p.pMin);
    v.add("moving_window", p.movingWindow);
    v.add("delayed_threshold", p.delayedThreshold);
    v.add("min_epos", p.minEpos);
    v.add("alpha", p.alpha);
    return v;
}

JsonValue
predictorContext(const PredictorParams &p)
{
    JsonValue v = JsonValue::object();
    v.add("doc", p.doc);
    v.add("p_min", p.pMin);
    v.add("learning_window", p.learningWindow);
    v.add("warmup_invocations", p.warmupInvocations);
    v.add("max_warmup_invocations", p.maxWarmupInvocations);
    v.add("stability_window", p.stabilityWindow);
    v.add("stability_tolerance", p.stabilityTolerance);
    v.add("audit_every", p.auditEvery);
    v.add("audit_tolerance", p.auditTolerance);
    v.add("audit_warmup", p.auditWarmup);
    v.add("audit_trigger_count", p.auditTriggerCount);
    v.add("audit_ci_min_samples", p.auditCiMinSamples);
    v.add("audit_mean_tolerance", p.auditMeanTolerance);
    v.add("cluster_range", p.clusterRange);
    v.add("ema_alpha", p.emaAlpha);
    // The mix-signature flag and the backend name no longer vary,
    // but they stay in the identity as constants: dropping them
    // would change every cell key, orphan every stored cell and
    // change the results document's store section.
    v.add("use_mix_signature", false);
    v.add("relearn", relearnContext(p.relearn));
    v.add("backend", "plt");
    return v;
}

JsonValue
cacheContext(const CacheParams &c)
{
    JsonValue v = JsonValue::array();
    v.append(c.sizeBytes);
    v.append(c.assoc);
    v.append(c.lineBytes);
    v.append(static_cast<std::uint64_t>(c.repl));
    return v;
}

JsonValue
machineContext(const MachineConfig &cfg)
{
    JsonValue v = JsonValue::object();
    v.add("l1i", cacheContext(cfg.hier.l1i));
    v.add("l1d", cacheContext(cfg.hier.l1d));
    v.add("l2", cacheContext(cfg.hier.l2));
    v.add("l1i_hit", cfg.hier.l1iHitLatency);
    v.add("l1d_hit", cfg.hier.l1dHitLatency);
    v.add("l2_hit", cfg.hier.l2HitLatency);
    v.add("mem_latency", cfg.hier.memLatency);
    v.add("bus_cycles_per_line", cfg.hier.busCyclesPerLine);
    v.add("tlb_entries", cfg.hier.tlbEntries);
    v.add("tlb_assoc", cfg.hier.tlbAssoc);
    v.add("tlb_miss_penalty", cfg.hier.tlbMissPenalty);
    v.add("l2_next_line_prefetch", cfg.hier.l2NextLinePrefetch);
    v.add("hier_seed", cfg.hier.seed);
    v.add("issue_width", cfg.cpu.issueWidth);
    v.add("retire_width", cfg.cpu.retireWidth);
    v.add("window_size", cfg.cpu.windowSize);
    v.add("mispredict_penalty", cfg.cpu.mispredictPenalty);
    v.add("mshrs", cfg.cpu.mshrs);
    v.add("no_cache_mem_latency", cfg.cpu.noCacheMemLatency);
    v.add("level", static_cast<std::uint64_t>(cfg.level));
    v.add("record_intervals", cfg.recordIntervals);
    v.add("block_ops", cfg.blockOps);
    return v;
}

} // namespace

CellCache::CellCache(fs::path store, std::string code_fingerprint)
    : store_(std::move(store)), fingerprint_(std::move(code_fingerprint))
{
    // The fingerprint names a directory: one plain component, so a
    // commit's eviction pass sees every fingerprint as a sibling.
    if (fingerprint_.empty() || fingerprint_.front() == '.' ||
        fingerprint_.find('/') != std::string::npos)
        throw std::invalid_argument("bad code fingerprint '" +
                                    fingerprint_ + "'");
}

void
CellCache::setWarmProfileHash(const std::string &workload,
                              std::uint64_t hash)
{
    warmProfileHash_[workload] = hash;
}

std::string
CellCache::cellKey(const SweepSpec &spec, const SweepCell &cell,
                   std::size_t trace_capacity) const
{
    // The canonical identity of one cell's simulation: everything
    // runCell() reads, nothing it doesn't (labels, sweep name and
    // the smoke flag are presentation-only and deliberately
    // absent). Doubles rely on the emitter's shortest-round-trip
    // guarantee for canonical bytes.
    JsonValue ctx = JsonValue::object();
    ctx.add("schema", cellSchema);
    ctx.add("store_version", storeVersion);
    ctx.add("fingerprint", fingerprint_);
    ctx.add("trace_capacity",
            static_cast<std::uint64_t>(trace_capacity));
    ctx.add("scale", spec.scale);
    ctx.add("workload", cell.workload);
    ctx.add("mode", static_cast<std::uint64_t>(cell.mode));
    ctx.add("l2_bytes", cell.l2Bytes);
    ctx.add("seed_index", cell.seedIndex);
    ctx.add("seed", cell.seed);
    ctx.add("machine", machineContext(spec.baseConfig));
    if (cell.mode == RunMode::Accelerated ||
        cell.mode == RunMode::SampledAccel) {
        ctx.add("predictor_index",
                static_cast<std::uint64_t>(cell.predictorIndex));
        ctx.add("predictor",
                predictorContext(
                    spec.predictors[cell.predictorIndex].params));
        ctx.add("pollution_index",
                static_cast<std::uint64_t>(cell.pollutionIndex));
        ctx.add("pollution",
                static_cast<std::uint64_t>(
                    spec.pollution[cell.pollutionIndex]));
        auto it = warmProfileHash_.find(cell.workload);
        if (it != warmProfileHash_.end())
            ctx.add("warm_profile_hash", it->second);
    }
    // Sampling knobs join the identity only for sampled cells, so
    // every pre-sampling key (and cached value) stays valid.
    if (isSampledMode(cell.mode)) {
        JsonValue s = JsonValue::object();
        s.add("interval_len", spec.sample.intervalLen);
        s.add("strata", spec.sample.strata);
        s.add("rate", spec.sample.rate);
        s.add("allocation",
              static_cast<std::uint64_t>(spec.sample.allocation));
        ctx.add("sample", std::move(s));
    }
    return StableHash().str(ctx.dump(-1)).hex();
}

fs::path
CellCache::cellPath(const std::string &cell_key) const
{
    return store_ / cellDir / fingerprint_ / cell_key;
}

std::optional<CellResult>
CellCache::fetch(const std::string &cell_key, const SweepCell &cell)
{
    auto &hits = registry_.counter("cell_cache", "hits");
    auto &misses = registry_.counter("cell_cache", "misses");

    std::optional<std::string> value = readSealedFile(cellPath(cell_key));
    if (!value) {
        misses.inc();
        return std::nullopt;
    }
    registry_.counter("cell_cache", "bytes_read")
        .inc(value->size());
    std::optional<CellResult> result = decodeCellResult(*value);
    // Coordinate cross-check: a decode failure or a hash collision
    // (a value recorded for a different cell) degrades to a miss.
    if (!result || result->failed ||
        result->cell.workload != cell.workload ||
        result->cell.mode != cell.mode ||
        result->cell.predictorIndex != cell.predictorIndex ||
        result->cell.pollutionIndex != cell.pollutionIndex ||
        result->cell.l2Bytes != cell.l2Bytes ||
        result->cell.seedIndex != cell.seedIndex ||
        result->cell.seed != cell.seed) {
        misses.inc();
        return std::nullopt;
    }
    // The stored index is from the recording sweep's expansion;
    // the current spec may order cells differently.
    result->cell.index = cell.index;
    hits.inc();
    return result;
}

void
CellCache::noteMisses(std::uint64_t n)
{
    registry_.counter("cell_cache", "misses").inc(n);
}

void
CellCache::commitResults(
    const std::vector<std::pair<std::string, const CellResult *>>
        &items)
{
    std::uint64_t bytes = 0;
    for (const auto &[cell_key, result] : items) {
        std::string value = encodeCellResult(*result);
        bytes += value.size();
        writeSealedFile(cellPath(cell_key), value);
    }

    // Other fingerprints' results can never hit again: delete them.
    std::vector<fs::path> stale;
    std::error_code ec;
    for (const fs::directory_entry &dir :
         fs::directory_iterator(store_ / cellDir, ec)) {
        if (dir.path().filename() != fingerprint_)
            stale.push_back(dir.path());
    }
    std::uint64_t evicted = 0;
    for (const fs::path &dir : stale) {
        for (const fs::directory_entry &f :
             fs::directory_iterator(dir, ec)) {
            if (f.path().filename().string().front() != '.')
                ++evicted;
        }
        fs::remove_all(dir);
    }

    registry_.counter("cell_cache", "inserts").inc(items.size());
    registry_.counter("cell_cache", "evictions").inc(evicted);
    registry_.counter("cell_cache", "bytes_written").inc(bytes);
}

JsonValue
CellCache::statsToJson() const
{
    JsonValue doc = JsonValue::object();
    doc.add("schema", "ospredict-store-stats-v1");
    doc.add("fingerprint", fingerprint_);

    // Fixed field order; untouched counters read as zero, so the
    // document shape never depends on which events occurred.
    obs::MetricsSnapshot snap = registry_.snapshot();
    JsonValue counters = JsonValue::object();
    for (const char *name : {"hits", "misses", "inserts", "evictions",
                             "bytes_read", "bytes_written"})
        counters.add(name, snap.counterValue("cell_cache", name));
    doc.add("cache", std::move(counters));
    return doc;
}

} // namespace osp
