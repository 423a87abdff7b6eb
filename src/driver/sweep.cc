#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <sstream>

#include "cell_cache.hh"
#include "core/accelerator.hh"
#include "thread_pool.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "workload/registry.hh"

namespace osp
{

const char *
runModeName(RunMode mode)
{
    switch (mode) {
      case RunMode::Full: return "full";
      case RunMode::AppOnly: return "app-only";
      case RunMode::Accelerated: return "accelerated";
      case RunMode::Sampled: return "sampled";
      case RunMode::SampledAccel: return "sampled-accel";
    }
    return "?";
}

bool
isSampledMode(RunMode mode)
{
    return mode == RunMode::Sampled ||
           mode == RunMode::SampledAccel;
}

std::uint64_t
cellSeed(std::uint64_t base_seed, std::uint64_t seed_index)
{
    if (seed_index == 0)
        return base_seed;
    // splitmix64 of (base, index): cheap, full-period, and well
    // decorrelated — each replication gets an independent stream.
    std::uint64_t z =
        base_seed + seed_index * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

namespace
{

bool
needsPredictor(RunMode mode)
{
    return mode == RunMode::Accelerated ||
           mode == RunMode::SampledAccel;
}

void
validateSpec(const SweepSpec &spec)
{
    if (spec.workloads.empty())
        osp_panic("SweepSpec '", spec.name.c_str(),
                  "': no workloads");
    for (const auto &w : spec.workloads) {
        if (!isWorkload(w))
            osp_panic("SweepSpec: unknown workload ", w.c_str());
    }
    if (spec.modes.empty())
        osp_panic("SweepSpec: no run modes");
    if (spec.l2Sizes.empty())
        osp_panic("SweepSpec: no L2 sizes");
    if (spec.numSeeds == 0)
        osp_panic("SweepSpec: numSeeds must be >= 1");
    for (RunMode m : spec.modes) {
        if (needsPredictor(m) &&
            (spec.predictors.empty() || spec.pollution.empty()))
            osp_panic("SweepSpec: Accelerated mode requires at "
                      "least one predictor variant and pollution "
                      "policy");
        if (isSampledMode(m)) {
            if (!spec.sample.enabled)
                osp_panic("SweepSpec: sampled modes require "
                          "sample.enabled");
            if (spec.sample.intervalLen == 0)
                osp_panic("SweepSpec: sample.intervalLen must be "
                          ">= 1");
            if (spec.sample.strata == 0)
                osp_panic("SweepSpec: sample.strata must be >= 1");
            if (!(spec.sample.rate > 0.0) ||
                spec.sample.rate > 1.0)
                osp_panic("SweepSpec: sample.rate must be in "
                          "(0, 1]");
            if (!isDetailed(spec.baseConfig.level))
                osp_panic("SweepSpec: sampled modes require a "
                          "detailed base level");
        }
    }
    if (spec.scale <= 0.0)
        osp_panic("SweepSpec: scale must be positive");
}

} // namespace

void
applySweepSampling(SweepSpec &spec, const SampleParams &params)
{
    spec.sample = params;
    spec.sample.enabled = true;
    auto has = [&](RunMode m) {
        return std::find(spec.modes.begin(), spec.modes.end(), m) !=
               spec.modes.end();
    };
    bool full = has(RunMode::Full);
    bool accel =
        has(RunMode::Accelerated) && !spec.predictors.empty();
    if (full && !has(RunMode::Sampled))
        spec.modes.push_back(RunMode::Sampled);
    if (accel && !has(RunMode::SampledAccel))
        spec.modes.push_back(RunMode::SampledAccel);
}

std::vector<SweepCell>
expandSweep(const SweepSpec &spec)
{
    validateSpec(spec);
    std::vector<SweepCell> cells;
    for (const auto &workload : spec.workloads) {
        for (std::uint64_t l2 : spec.l2Sizes) {
            for (std::uint64_t si = 0; si < spec.numSeeds; ++si) {
                for (RunMode mode : spec.modes) {
                    std::size_t num_pred =
                        needsPredictor(mode)
                            ? spec.predictors.size()
                            : 1;
                    std::size_t num_poll =
                        needsPredictor(mode) ? spec.pollution.size()
                                             : 1;
                    for (std::size_t pi = 0; pi < num_pred; ++pi) {
                        for (std::size_t qi = 0; qi < num_poll;
                             ++qi) {
                            SweepCell c;
                            c.index = cells.size();
                            c.workload = workload;
                            c.mode = mode;
                            c.predictorIndex = pi;
                            c.pollutionIndex = qi;
                            c.l2Bytes = l2;
                            c.seedIndex = si;
                            c.seed =
                                cellSeed(spec.baseSeed, si);
                            cells.push_back(std::move(c));
                        }
                    }
                }
            }
        }
    }
    return cells;
}

namespace
{

/**
 * The two-phase stratified-sampling cell body. Phase 1 profiles
 * fixed-length app-instruction intervals in pure emulation; the
 * stratifier clusters them and draws a seeded sample; Phase 2
 * re-runs the workload at the configured detail level with only the
 * sampled intervals (plus the partial tail) on the timing engine,
 * fast-forwarding the rest with functional warming. Kernel time is
 * never sampled: SampledAccel predicts it exactly as Accelerated
 * does, Sampled simulates it in detail everywhere.
 */
void
runSampledCell(const SweepSpec &spec, const SweepCell &cell,
               MachineConfig cfg, obs::Telemetry &telemetry,
               const std::string *warm_profile, CellResult &result)
{
    const SampleParams &sp = spec.sample;

    // Phase 1. A separate machine with the same seed: instruction
    // streams are mode-invariant across detail levels, so interval
    // boundaries observed here transfer to Phase 2 exactly. No
    // controller is attached — an Emulate-level pass must not feed
    // predictor or audit state (see Machine::runServiceT).
    IntervalProfiler profiler(sp.intervalLen);
    {
        MachineConfig p1 = cfg;
        p1.level = DetailLevel::Emulate;
        auto machine = makeMachine(cell.workload, p1, spec.scale);
        machine->setIntervalProfiler(&profiler);
        machine->run();
    }

    // Stratify and draw. The draw is seeded by the cell seed, so
    // replications (seed indices) sample independent interval sets
    // while comparable cells share one.
    StratifyParams stp;
    stp.strata = sp.strata;
    stp.rate = sp.rate;
    stp.allocation = sp.allocation;
    stp.seed = cell.seed;
    StrataAssignment strata =
        stratifyIntervals(profiler.featureMatrix(), stp);
    std::vector<std::uint64_t> picks =
        drawStratifiedSample(strata, stp, profiler.costProxy());

    SamplePlan plan;
    plan.intervalLen = sp.intervalLen;
    plan.fullIntervals = profiler.fullIntervals();
    plan.sampledMask.assign(
        static_cast<std::size_t>(plan.fullIntervals), 0);
    for (std::uint64_t idx : picks)
        plan.sampledMask[static_cast<std::size_t>(idx)] = 1;

    // Phase 2.
    auto machine = makeMachine(cell.workload, cfg, spec.scale);
    machine->setSamplePlan(&plan);
    machine->setTelemetry(&telemetry);
    Accelerator accel(
        cell.mode == RunMode::SampledAccel
            ? spec.predictors[cell.predictorIndex].params
            : PredictorParams{});
    if (cell.mode == RunMode::SampledAccel) {
        accel.setTelemetry(&telemetry);
        if (warm_profile) {
            std::istringstream is(*warm_profile);
            if (!accel.loadState(is))
                warn("cell ", cell.workload,
                     ": archived PLT profile rejected; learning "
                     "online");
        }
        machine->setController(&accel);
    }
    result.totals = machine->run();
    if (cell.mode == RunMode::SampledAccel) {
        result.stats = accel.aggregateStats();
        result.hasStats = true;
        std::ostringstream profile;
        accel.saveState(profile);
        result.pltProfile = profile.str();
    }

    // Expand the per-stratum means to a whole-run estimate. The
    // tail (and any partial last interval) was simulated in detail,
    // so it enters as a measured constant, not an extrapolation.
    std::vector<std::uint64_t> idxs;
    std::vector<double> vals;
    Cycles tail_cycles = 0;
    InstCount tail_insts = 0;
    InstCount detailed_app = 0;
    for (const IntervalSample &s : machine->sampleLog()) {
        detailed_app += s.appInsts;
        if (s.index < plan.fullIntervals) {
            idxs.push_back(s.index);
            vals.push_back(static_cast<double>(s.appCycles));
        } else {
            tail_cycles += s.appCycles;
            tail_insts += s.appInsts;
        }
    }
    StratifiedEstimate est =
        estimateStratifiedTotal(strata, idxs, vals);

    CellSampleSection &sec = result.sample;
    sec.present = true;
    sec.intervalLen = sp.intervalLen;
    sec.numIntervals = plan.fullIntervals;
    sec.numStrata = strata.numStrata;
    sec.sampledIntervals = idxs.size();
    sec.tailInsts = tail_insts;
    sec.tailCycles = tail_cycles;
    sec.detailedAppInsts = detailed_app;
    sec.ffAppInsts = result.totals.appInsts - detailed_app;
    sec.estAppCycles =
        est.total + static_cast<double>(tail_cycles);
    sec.estTotalCycles =
        sec.estAppCycles +
        static_cast<double>(result.totals.osSimCycles +
                            result.totals.osPredCycles);
    sec.ciHalfWidth = est.ci95Half;
    sec.df = est.df;
    sec.hasCi = est.hasCi;
    InstCount total_insts = result.totals.totalInsts();
    InstCount detailed_insts =
        detailed_app + (result.totals.osInsts -
                        result.totals.osPredInsts);
    sec.detailedFraction =
        total_insts ? static_cast<double>(detailed_insts) /
                          static_cast<double>(total_insts)
                    : 0.0;
    sec.strata = est.strata;
}

} // namespace

CellResult
runCell(const SweepSpec &spec, const SweepCell &cell,
        std::size_t trace_capacity,
        const std::string *warm_profile)
{
    MachineConfig cfg = spec.baseConfig;
    cfg.seed = cell.seed;
    cfg.hier.l2.sizeBytes = cell.l2Bytes;
    cfg.appOnly = (cell.mode == RunMode::AppOnly);

    CellResult result;
    result.cell = cell;

    // One telemetry sink per cell: cells are the unit of
    // parallelism, so the registry never sees two threads.
    obs::Telemetry telemetry(trace_capacity);

    auto start = std::chrono::steady_clock::now();
    if (isSampledMode(cell.mode)) {
        if (cell.mode == RunMode::SampledAccel)
            cfg.pollutionPolicy =
                spec.pollution[cell.pollutionIndex];
        runSampledCell(spec, cell, cfg, telemetry, warm_profile,
                       result);
    } else if (cell.mode == RunMode::Accelerated) {
        cfg.pollutionPolicy = spec.pollution[cell.pollutionIndex];
        auto machine = makeMachine(cell.workload, cfg, spec.scale);
        Accelerator accel(
            spec.predictors[cell.predictorIndex].params);
        accel.setTelemetry(&telemetry);
        if (warm_profile) {
            // Cross-run warm start: predictors begin in the
            // Predicting state with the archived cluster stats —
            // the paper's offline approach (see store/plt_archive).
            std::istringstream is(*warm_profile);
            if (!accel.loadState(is))
                warn("cell ", cell.workload,
                     ": archived PLT profile rejected; learning "
                     "online");
        }
        machine->setController(&accel);
        machine->setTelemetry(&telemetry);
        result.totals = machine->run();
        result.stats = accel.aggregateStats();
        result.hasStats = true;
        std::ostringstream profile;
        accel.saveState(profile);
        result.pltProfile = profile.str();
    } else {
        auto machine = makeMachine(cell.workload, cfg, spec.scale);
        machine->setTelemetry(&telemetry);
        result.totals = machine->run();
    }
    auto end = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(end - start).count();

    result.telemetry = telemetry.registry.snapshot();
    result.traceInfo = obs::summarize(telemetry.tracer);
    result.trace = telemetry.tracer.events();
    result.accuracy = telemetry.accuracy.snapshot();
    return result;
}

namespace
{

/**
 * Fill the derived fields: error vs the Full baseline at the same
 * (workload, L2, seed index), Eq. 10 estimates, and the
 * per-predictor-variant rollup. Runs after the pool join, in
 * cell-index order — part of the determinism contract.
 */
void
aggregate(SweepResult &result)
{
    for (CellResult &r : result.cells) {
        if (r.cell.mode == RunMode::Full || r.failed)
            continue;
        for (const CellResult &base : result.cells) {
            if (base.cell.mode != RunMode::Full || base.failed ||
                base.cell.workload != r.cell.workload ||
                base.cell.l2Bytes != r.cell.l2Bytes ||
                base.cell.seedIndex != r.cell.seedIndex)
                continue;
            // Sampled cells are judged on their *estimate*: their
            // measured cycle count only covers the sampled
            // intervals.
            double measured =
                r.sample.present
                    ? r.sample.estTotalCycles
                    : static_cast<double>(r.totals.totalCycles());
            double reference =
                static_cast<double>(base.totals.totalCycles());
            r.cycleError = absError(measured, reference);
            r.signedCycleError =
                reference != 0.0
                    ? (measured - reference) / reference
                    : 0.0;
            r.hasBaseline = true;
            if (r.sample.present) {
                r.sample.hasOracle = true;
                r.sample.oracleError = r.cycleError;
            }
            break;
        }
        // The CI quantifies sampling noise on the estimated
        // quantity — application cycles — so the bracket claim is
        // judged on that quantity against the *unsampled twin* of
        // the cell (Sampled vs Full, SampledAccel vs Accelerated):
        // the twin shares the prediction-error and OS-reproduction
        // budgets, which the stratified estimator neither sees nor
        // claims to bound.
        if (!r.sample.present)
            continue;
        RunMode twin_mode = r.cell.mode == RunMode::SampledAccel
                                ? RunMode::Accelerated
                                : RunMode::Full;
        for (const CellResult &twin : result.cells) {
            if (twin.cell.mode != twin_mode || twin.failed ||
                twin.cell.workload != r.cell.workload ||
                twin.cell.l2Bytes != r.cell.l2Bytes ||
                twin.cell.seedIndex != r.cell.seedIndex)
                continue;
            if (twin_mode == RunMode::Accelerated &&
                (twin.cell.predictorIndex !=
                     r.cell.predictorIndex ||
                 twin.cell.pollutionIndex !=
                     r.cell.pollutionIndex))
                continue;
            r.sample.hasOracle = true;
            r.sample.withinCi =
                std::abs(r.sample.estAppCycles -
                         static_cast<double>(
                             twin.totals.appCycles)) <=
                r.sample.ciHalfWidth;
            break;
        }
    }
    for (CellResult &r : result.cells) {
        if (r.cell.mode == RunMode::Accelerated && !r.failed)
            r.estSpeedupR133 = estimatedSpeedup(r.totals, 133.0);
    }

    result.summary.clear();
    for (std::size_t pi = 0; pi < result.spec.predictors.size();
         ++pi) {
        VariantSummary s;
        s.label = result.spec.predictors[pi].label;
        double err_sum = 0.0;
        std::uint64_t err_count = 0;
        double cov_sum = 0.0;
        double est_sum = 0.0;
        for (const CellResult &r : result.cells) {
            if (r.cell.mode != RunMode::Accelerated || r.failed ||
                r.cell.predictorIndex != pi)
                continue;
            ++s.cells;
            cov_sum += r.totals.coverage();
            est_sum += r.estSpeedupR133;
            if (r.hasBaseline) {
                err_sum += r.cycleError;
                ++err_count;
                if (r.cycleError > s.worstCycleError)
                    s.worstCycleError = r.cycleError;
            }
        }
        if (s.cells == 0)
            continue;
        s.meanCycleError =
            err_count ? err_sum / static_cast<double>(err_count)
                      : 0.0;
        s.meanCoverage = cov_sum / static_cast<double>(s.cells);
        s.meanEstSpeedupR133 =
            est_sum / static_cast<double>(s.cells);
        result.summary.push_back(std::move(s));
    }
}

} // namespace

SweepResult
runSweep(const SweepSpec &spec, const RunnerOptions &options)
{
    SweepResult result;
    result.spec = spec;

    std::vector<SweepCell> cells = expandSweep(spec);
    result.cells.resize(cells.size());

    unsigned threads = options.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }

    // Warm-start profile per cell (accelerated cells of archived
    // workloads only). The map outlives the pool; workers take
    // stable pointers into it.
    std::vector<const std::string *> warm(cells.size(), nullptr);
    if (options.warmProfiles) {
        for (const SweepCell &cell : cells) {
            if (cell.mode != RunMode::Accelerated)
                continue;
            auto it = options.warmProfiles->find(cell.workload);
            if (it != options.warmProfiles->end())
                warm[cell.index] = &it->second;
        }
    }

    // Cache interaction happens entirely on this thread, in
    // cell-index order: keys, then lookups (incremental), and one
    // commit after the join — see the determinism contract.
    std::vector<std::string> keys;
    std::vector<bool> cached(cells.size(), false);
    if (options.cache) {
        keys.resize(cells.size());
        for (const SweepCell &cell : cells)
            keys[cell.index] = options.cache->cellKey(
                spec, cell, options.traceCapacity);
        if (options.incremental) {
            for (const SweepCell &cell : cells) {
                std::optional<CellResult> hit =
                    options.cache->fetch(keys[cell.index], cell);
                if (hit) {
                    result.cells[cell.index] = std::move(*hit);
                    cached[cell.index] = true;
                }
            }
        } else {
            options.cache->noteMisses(cells.size());
        }
    }

    auto start = std::chrono::steady_clock::now();
    {
        WorkStealingPool pool(threads);
        result.threads = pool.numThreads();
        for (const SweepCell &cell : cells) {
            if (cached[cell.index])
                continue;
            // Each task owns exactly one preassigned result slot,
            // so completion order cannot affect the aggregate. A
            // throwing cell is captured into its own slot: the rest
            // of the sweep completes, and the failure is reported in
            // the results document instead of tearing down the pool.
            CellResult *slot = &result.cells[cell.index];
            const std::string *profile = warm[cell.index];
            const SweepSpec *s = &spec;
            const RunnerOptions *o = &options;
            pool.submit([slot, s, o, cell, profile] {
                try {
                    *slot = o->cellRunner
                                ? o->cellRunner(*s, cell,
                                                o->traceCapacity)
                                : runCell(*s, cell,
                                          o->traceCapacity,
                                          profile);
                } catch (const std::exception &e) {
                    slot->cell = cell;
                    slot->failed = true;
                    slot->error = e.what();
                } catch (...) {
                    slot->cell = cell;
                    slot->failed = true;
                    slot->error = "unknown exception";
                }
            });
        }
        pool.wait();
    }
    auto end = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(end - start).count();

    if (options.cache) {
        result.store.present = true;
        result.store.fingerprint = options.cache->fingerprint();
        result.store.cellKeys = keys;
        std::vector<std::pair<std::string, const CellResult *>>
            items;
        for (const SweepCell &cell : cells) {
            const CellResult &r = result.cells[cell.index];
            if (!cached[cell.index] && !r.failed)
                items.emplace_back(keys[cell.index], &r);
        }
        options.cache->commitResults(items);
    }

    aggregate(result);
    return result;
}

const CellResult *
SweepResult::find(const std::string &workload, RunMode mode,
                  std::size_t predictor_index,
                  std::uint64_t l2_bytes, std::uint64_t seed_index,
                  std::size_t pollution_index) const
{
    if (l2_bytes == 0 && !spec.l2Sizes.empty())
        l2_bytes = spec.l2Sizes.front();
    for (const CellResult &r : cells) {
        if (r.cell.workload == workload && r.cell.mode == mode &&
            r.cell.l2Bytes == l2_bytes &&
            r.cell.seedIndex == seed_index &&
            (mode != RunMode::Accelerated ||
             (r.cell.predictorIndex == predictor_index &&
              r.cell.pollutionIndex == pollution_index)))
            return &r;
    }
    return nullptr;
}

namespace
{

/** Serialize one cell's metrics snapshot + trace summary. */
JsonValue
telemetryToJson(const obs::MetricsSnapshot &snap,
                const obs::TraceSummary &trace_info)
{
    JsonValue t = JsonValue::object();

    JsonValue counters = JsonValue::object();
    for (const auto &c : snap.counters)
        counters.add(c.component + "." + c.name, c.value);
    t.add("counters", std::move(counters));

    JsonValue gauges = JsonValue::object();
    for (const auto &g : snap.gauges)
        gauges.add(g.component + "." + g.name, g.value);
    t.add("gauges", std::move(gauges));

    JsonValue histograms = JsonValue::object();
    for (const auto &h : snap.histograms) {
        JsonValue hv = JsonValue::object();
        hv.add("count", h.count);
        hv.add("sum", h.sum);
        JsonValue buckets = JsonValue::array();
        for (const auto &[low, count] : h.buckets) {
            JsonValue pair = JsonValue::array();
            pair.append(low);
            pair.append(count);
            buckets.append(std::move(pair));
        }
        hv.add("buckets", std::move(buckets));
        histograms.add(h.component + "." + h.name, std::move(hv));
    }
    t.add("histograms", std::move(histograms));

    JsonValue trace = JsonValue::object();
    trace.add("capacity", trace_info.capacity);
    trace.add("recorded", trace_info.recorded);
    trace.add("dropped", trace_info.dropped);
    t.add("trace", std::move(trace));
    return t;
}

} // namespace

JsonValue
sweepToJson(const SweepResult &result, const JsonOptions &options)
{
    const SweepSpec &spec = result.spec;

    JsonValue doc = JsonValue::object();
    doc.add("schema", "ospredict-sweep-v1");

    JsonValue sweep = JsonValue::object();
    sweep.add("name", spec.name);
    sweep.add("base_seed", spec.baseSeed);
    sweep.add("scale", spec.scale);
    sweep.add("smoke", spec.smoke);
    sweep.add("num_seeds", spec.numSeeds);
    JsonValue workloads = JsonValue::array();
    for (const auto &w : spec.workloads)
        workloads.append(w);
    sweep.add("workloads", std::move(workloads));
    JsonValue modes = JsonValue::array();
    for (RunMode m : spec.modes)
        modes.append(runModeName(m));
    sweep.add("modes", std::move(modes));
    JsonValue predictors = JsonValue::array();
    for (const auto &p : spec.predictors)
        predictors.append(p.label);
    sweep.add("predictors", std::move(predictors));
    JsonValue pollution = JsonValue::array();
    for (PollutionPolicy p : spec.pollution)
        pollution.append(pollutionPolicyName(p));
    sweep.add("pollution", std::move(pollution));
    JsonValue l2s = JsonValue::array();
    for (std::uint64_t l2 : spec.l2Sizes)
        l2s.append(l2);
    sweep.add("l2_bytes", std::move(l2s));
    doc.add("sweep", std::move(sweep));

    JsonValue cells = JsonValue::array();
    for (const CellResult &r : result.cells) {
        JsonValue cell = JsonValue::object();

        JsonValue config = JsonValue::object();
        config.add("index",
                   static_cast<std::uint64_t>(r.cell.index));
        config.add("workload", r.cell.workload);
        config.add("mode", runModeName(r.cell.mode));
        if (needsPredictor(r.cell.mode)) {
            config.add(
                "predictor",
                spec.predictors[r.cell.predictorIndex].label);
            config.add("pollution",
                       pollutionPolicyName(
                           spec.pollution[r.cell.pollutionIndex]));
        }
        config.add("l2_bytes", r.cell.l2Bytes);
        config.add("seed_index", r.cell.seedIndex);
        config.add("seed", r.cell.seed);
        cell.add("config", std::move(config));

        if (r.failed) {
            cell.add("error", r.error);
            cells.append(std::move(cell));
            continue;
        }

        JsonValue metrics = JsonValue::object();
        metrics.add("totals", toJson(r.totals));
        if (r.hasStats)
            metrics.add("predictor_stats", toJson(r.stats));
        cell.add("metrics", std::move(metrics));

        if (!r.telemetry.empty())
            cell.add("telemetry",
                     telemetryToJson(r.telemetry, r.traceInfo));

        JsonValue derived = JsonValue::object();
        if (r.hasBaseline)
            derived.add("cycle_error", r.cycleError);
        if (r.cell.mode == RunMode::Accelerated)
            derived.add("est_speedup_r133", r.estSpeedupR133);
        if (derived.size())
            cell.add("derived", std::move(derived));

        if (options.includeTiming)
            cell.add("wall_s", r.wallSeconds);
        cells.append(std::move(cell));
    }
    doc.add("cells", std::move(cells));

    // Sweep-wide telemetry rollup: counters summed across cells
    // (sorted by std::map, so the section inherits the document's
    // thread-count byte-invariance).
    {
        JsonValue telemetry = JsonValue::object();
        telemetry.add("schema", "ospredict-telemetry-v1");
        std::map<std::string, std::uint64_t> totals;
        std::uint64_t instrumented = 0;
        for (const CellResult &r : result.cells) {
            if (r.failed || r.telemetry.empty())
                continue;
            ++instrumented;
            for (const auto &c : r.telemetry.counters)
                totals[c.component + "." + c.name] += c.value;
        }
        telemetry.add("instrumented_cells", instrumented);
        JsonValue counters = JsonValue::object();
        for (const auto &[name, value] : totals)
            counters.add(name, value);
        telemetry.add("counters", std::move(counters));
        doc.add("telemetry", std::move(telemetry));
    }

    // Prediction-accuracy section: one entry per accelerated cell
    // whose ledger saw predictions, each cross-checked against the
    // oracle (the Full baseline) when one exists, plus a
    // per-service rollup merged across cells. Built in cell-index
    // order from per-cell snapshots, so the section inherits the
    // document's thread-count byte-invariance.
    {
        JsonValue accuracy = JsonValue::object();
        accuracy.add("schema", "ospredict-accuracy-v1");

        struct ServiceRoll
        {
            std::uint64_t predictions = 0;
            std::uint64_t outlierPredictions = 0;
            std::uint64_t predictedCycles = 0;
            std::uint64_t audits = 0;
            std::uint64_t auditFailures = 0;
            std::uint64_t driftingClusters = 0;
            RunningStats err;
        };
        std::map<std::uint8_t, ServiceRoll> services;

        JsonValue acells = JsonValue::array();
        for (const CellResult &r : result.cells) {
            if (r.failed || !needsPredictor(r.cell.mode) ||
                r.accuracy.empty())
                continue;

            JsonValue cell = JsonValue::object();
            cell.add("index",
                     static_cast<std::uint64_t>(r.cell.index));
            cell.add("workload", r.cell.workload);
            cell.add(
                "predictor",
                spec.predictors[r.cell.predictorIndex].label);
            cell.add("pollution",
                     pollutionPolicyName(
                         spec.pollution[r.cell.pollutionIndex]));
            cell.add("l2_bytes", r.cell.l2Bytes);
            cell.add("seed_index", r.cell.seedIndex);
            cell.add("ledger", toJson(r.accuracy));

            if (r.hasBaseline) {
                obs::AccuracyRollup roll =
                    rollupAccuracy(r.accuracy);
                JsonValue oracle = JsonValue::object();
                oracle.add("rel_err", r.signedCycleError);
                oracle.add("abs_err", r.cycleError);
                if (roll.hasEstimate && roll.hasCi) {
                    // The acceptance test of the ledger: does the
                    // oracle-measured end-to-end error fall within
                    // the audit-estimated error's own 95% CI?
                    double delta = std::fabs(r.signedCycleError -
                                             roll.estRelTotalErr);
                    oracle.add("est_delta", delta);
                    oracle.add("within_ci",
                               delta <= roll.estCi95);
                }
                cell.add("oracle", std::move(oracle));
            }
            acells.append(std::move(cell));

            for (const obs::AccuracyEntry &e : r.accuracy.entries) {
                ServiceRoll &s = services[e.service];
                s.predictions += e.predictions;
                s.outlierPredictions += e.outlierPredictions;
                s.predictedCycles += e.predictedCycles;
                s.audits += e.audits;
                s.auditFailures += e.auditFailures;
                if (e.drift)
                    ++s.driftingClusters;
                s.err.merge(e.errStats());
            }
        }
        accuracy.add("cells", std::move(acells));

        JsonValue svc = JsonValue::array();
        for (const auto &[index, s] : services) {
            JsonValue v = JsonValue::object();
            v.add("service",
                  index < numServiceTypes
                      ? std::string(serviceName(
                            static_cast<ServiceType>(index)))
                      : std::to_string(index));
            v.add("predictions", s.predictions);
            v.add("outlier_predictions", s.outlierPredictions);
            v.add("predicted_cycles", s.predictedCycles);
            v.add("audits", s.audits);
            v.add("audit_failures", s.auditFailures);
            v.add("drifting_clusters", s.driftingClusters);
            if (s.err.count()) {
                JsonValue err = JsonValue::object();
                err.add("n", s.err.count());
                err.add("mean", s.err.mean());
                err.add("stddev", s.err.sampleStddev());
                if (s.err.count() >= 2)
                    err.add("ci95", obs::accuracyCi95(s.err));
                v.add("err", std::move(err));
            }
            svc.append(std::move(v));
        }
        accuracy.add("services", std::move(svc));
        doc.add("accuracy", std::move(accuracy));
    }

    // Stratified-sampling section: per-cell estimates, confidence
    // intervals and detailed-work accounting. Emitted only when the
    // sweep ran sampled cells, so every pre-sampling document keeps
    // its exact byte layout. Built in cell-index order from
    // deterministic per-cell data, so the section inherits the
    // document's thread-count byte-invariance.
    {
        bool any_sample = false;
        for (const CellResult &r : result.cells)
            any_sample |= !r.failed && r.sample.present;
        if (any_sample) {
            JsonValue sample = JsonValue::object();
            sample.add("schema", "ospredict-sample-v1");
            JsonValue params = JsonValue::object();
            params.add("interval_len", spec.sample.intervalLen);
            params.add("strata", spec.sample.strata);
            params.add("rate", spec.sample.rate);
            params.add("allocation",
                       allocationName(spec.sample.allocation));
            sample.add("params", std::move(params));

            JsonValue scells = JsonValue::array();
            for (const CellResult &r : result.cells) {
                if (r.failed || !r.sample.present)
                    continue;
                const CellSampleSection &s = r.sample;
                JsonValue cell = JsonValue::object();
                cell.add("index",
                         static_cast<std::uint64_t>(r.cell.index));
                cell.add("workload", r.cell.workload);
                cell.add("mode", runModeName(r.cell.mode));
                cell.add("seed_index", r.cell.seedIndex);
                cell.add("num_intervals", s.numIntervals);
                cell.add("num_strata", s.numStrata);
                cell.add("sampled_intervals", s.sampledIntervals);
                cell.add("tail_insts", s.tailInsts);
                cell.add("tail_cycles", s.tailCycles);
                cell.add("detailed_app_insts", s.detailedAppInsts);
                cell.add("ff_app_insts", s.ffAppInsts);
                cell.add("est_app_cycles", s.estAppCycles);
                cell.add("est_total_cycles", s.estTotalCycles);
                cell.add("ci95_half", s.ciHalfWidth);
                cell.add("df", s.df);
                cell.add("has_ci", s.hasCi);
                cell.add("detailed_fraction", s.detailedFraction);
                JsonValue strata = JsonValue::array();
                for (const StratumEstimate &h : s.strata) {
                    JsonValue row = JsonValue::array();
                    row.append(h.population);
                    row.append(h.sampled);
                    row.append(h.mean);
                    row.append(h.sampleVar);
                    strata.append(std::move(row));
                }
                cell.add("strata", std::move(strata));
                if (s.hasOracle) {
                    JsonValue oracle = JsonValue::object();
                    oracle.add("abs_err", s.oracleError);
                    oracle.add("within_ci", s.withinCi);
                    cell.add("oracle", std::move(oracle));
                }
                scells.append(std::move(cell));
            }
            sample.add("cells", std::move(scells));
            doc.add("sample", std::move(sample));
        }
    }

    // Canonical store section: only data invariant across thread
    // counts and warm/cold runs (the code fingerprint and the
    // content-addressed cell keys). Hit/miss statistics are
    // volatile and live in the --store-stats document instead.
    if (result.store.present) {
        JsonValue store = JsonValue::object();
        store.add("schema", "ospredict-store-v1");
        store.add("code_fingerprint", result.store.fingerprint);
        JsonValue keys = JsonValue::array();
        for (const std::string &k : result.store.cellKeys)
            keys.append(k);
        store.add("cell_keys", std::move(keys));
        doc.add("store", std::move(store));
    }

    JsonValue summary = JsonValue::object();
    JsonValue variants = JsonValue::array();
    for (const VariantSummary &s : result.summary) {
        JsonValue v = JsonValue::object();
        v.add("predictor", s.label);
        v.add("cells", s.cells);
        v.add("mean_cycle_error", s.meanCycleError);
        v.add("worst_cycle_error", s.worstCycleError);
        v.add("mean_coverage", s.meanCoverage);
        v.add("mean_est_speedup_r133", s.meanEstSpeedupR133);
        variants.append(std::move(v));
    }
    summary.add("predictors", std::move(variants));
    JsonValue failed = JsonValue::array();
    for (const CellResult &r : result.cells) {
        if (r.failed)
            failed.append(static_cast<std::uint64_t>(r.cell.index));
    }
    summary.add("failed_cells", std::move(failed));
    doc.add("summary", std::move(summary));

    if (options.includeTiming) {
        JsonValue timing = JsonValue::object();
        timing.add("threads", result.threads);
        timing.add("wall_s", result.wallSeconds);
        doc.add("timing", std::move(timing));
    }
    return doc;
}

namespace
{

/** One warn() per serialized document when any cell's event ring
 *  overflowed — a truncated trace must not be silent. */
void
warnDroppedEvents(const SweepResult &result, const char *what)
{
    std::uint64_t rings = 0;
    std::uint64_t dropped = 0;
    for (const CellResult &r : result.cells) {
        if (r.traceInfo.dropped == 0)
            continue;
        ++rings;
        dropped += r.traceInfo.dropped;
    }
    obs::warnIfDropped(what, rings, dropped);
}

} // namespace

void
writeResultsJson(std::ostream &os, const SweepResult &result,
                 const JsonOptions &options)
{
    warnDroppedEvents(result, "results document");
    sweepToJson(result, options).write(os, 2);
    os << "\n";
}

namespace
{

void
appendCellTraceEvents(JsonValue &events, const SweepResult &result)
{
    // chrome://tracing "JSON Array Format" events. Interval-shaped
    // events (service detailed/predicted) become complete ("X")
    // slices whose ts is the retired-instruction count and dur the
    // interval's cycles; everything else becomes an instant ("i")
    // event. One process per sweep cell, one thread per service
    // type.
    for (const CellResult &r : result.cells) {
        if (r.failed)
            continue;
        auto pid = static_cast<std::uint64_t>(r.cell.index);

        JsonValue meta = JsonValue::object();
        meta.add("name", "process_name");
        meta.add("ph", "M");
        meta.add("pid", pid);
        JsonValue margs = JsonValue::object();
        margs.add("name",
                  std::string(r.cell.workload) + "/" +
                      runModeName(r.cell.mode) + "/seed" +
                      std::to_string(r.cell.seedIndex));
        meta.add("args", std::move(margs));
        events.append(std::move(meta));

        for (const obs::TraceEvent &ev : r.trace) {
            JsonValue e = JsonValue::object();
            e.add("name", obs::traceEventKindName(ev.kind));
            e.add("pid", pid);
            e.add("tid",
                  static_cast<std::uint64_t>(
                      ev.service == obs::traceNoService
                          ? numServiceTypes
                          : ev.service));
            e.add("ts", ev.tick);
            bool slice =
                ev.kind == obs::TraceEventKind::ServiceDetailed ||
                ev.kind == obs::TraceEventKind::ServicePredicted;
            if (slice) {
                e.add("ph", "X");
                e.add("dur", ev.b);
            } else {
                e.add("ph", "i");
                e.add("s", "t");
            }
            JsonValue args = JsonValue::object();
            args.add("a", ev.a);
            args.add("b", ev.b);
            if (ev.service != obs::traceNoService)
                args.add("service",
                         serviceName(static_cast<ServiceType>(
                             ev.service)));
            e.add("args", std::move(args));
            events.append(std::move(e));
        }
    }
}

} // namespace

void
writeChromeTrace(std::ostream &os, const SweepResult &result)
{
    warnDroppedEvents(result, "chrome trace");
    JsonValue doc = JsonValue::object();
    JsonValue events = JsonValue::array();
    appendCellTraceEvents(events, result);

    doc.add("traceEvents", std::move(events));
    doc.add("displayTimeUnit", "ns");
    JsonValue other = JsonValue::object();
    other.add("clock", "retired-instructions");
    other.add("sweep", result.spec.name);
    doc.add("otherData", std::move(other));
    doc.write(os, 2);
    os << "\n";
}

void
writeAccuracyReport(std::ostream &os, const SweepResult &result)
{
    const SweepSpec &spec = result.spec;
    os << "accuracy report: sweep " << spec.name
       << (spec.smoke ? " [smoke]" : "") << ", base seed "
       << spec.baseSeed << "\n\n";

    // Per-cell rollup: the live accuracy estimate next to the
    // offline oracle where a Full baseline exists.
    TablePrinter cells({"workload", "predictor", "l2KB", "seed",
                        "preds", "audits", "fail", "audit_err",
                        "ci95", "est_err", "oracle_err", "in_ci",
                        "drift"});

    struct BudgetRow
    {
        double absContribution = 0.0;
        std::size_t cellIndex = 0;
        obs::AccuracyEntry entry;
        const CellResult *cell = nullptr;
    };
    std::vector<BudgetRow> budget;

    for (const CellResult &r : result.cells) {
        if (r.failed || r.cell.mode != RunMode::Accelerated ||
            r.accuracy.empty())
            continue;
        obs::AccuracyRollup roll = rollupAccuracy(r.accuracy);

        std::string in_ci = "-";
        std::string oracle_err = "-";
        if (r.hasBaseline) {
            oracle_err = TablePrinter::pct(r.signedCycleError, 2);
            if (roll.hasEstimate && roll.hasCi) {
                double delta = std::fabs(r.signedCycleError -
                                         roll.estRelTotalErr);
                in_ci = delta <= roll.estCi95 ? "yes" : "NO";
            }
        }
        cells.addRow(
            {r.cell.workload,
             spec.predictors[r.cell.predictorIndex].label,
             std::to_string(r.cell.l2Bytes / 1024),
             std::to_string(r.cell.seedIndex),
             std::to_string(roll.predictions),
             std::to_string(roll.audits),
             std::to_string(roll.auditFailures),
             roll.err.count()
                 ? TablePrinter::pct(roll.err.mean(), 2)
                 : "-",
             roll.hasCi ? TablePrinter::pct(roll.ci95, 2) : "-",
             roll.hasEstimate
                 ? TablePrinter::pct(roll.estRelTotalErr, 2)
                 : "-",
             oracle_err, in_ci,
             std::to_string(roll.driftingClusters)});

        for (const obs::AccuracyEntry &e : r.accuracy.entries) {
            BudgetRow row;
            row.absContribution =
                e.errCount
                    ? std::fabs(
                          e.errMean *
                          static_cast<double>(e.predictedCycles))
                    : 0.0;
            row.cellIndex = r.cell.index;
            row.entry = e;
            row.cell = &r;
            budget.push_back(row);
        }
    }

    if (cells.numRows() == 0) {
        os << "no accelerated cell recorded predictions (no audit "
              "data to report).\n";
        return;
    }
    cells.print(os);
    os << "\n";

    // The error budget: which (workload, service, cluster) slices
    // the end-to-end error decomposes into, largest first.
    std::sort(budget.begin(), budget.end(),
              [](const BudgetRow &a, const BudgetRow &b) {
                  if (a.absContribution != b.absContribution)
                      return a.absContribution > b.absContribution;
                  if (a.cellIndex != b.cellIndex)
                      return a.cellIndex < b.cellIndex;
                  if (a.entry.service != b.entry.service)
                      return a.entry.service < b.entry.service;
                  return a.entry.cluster < b.entry.cluster;
              });

    os << "error budget (largest contributors first; contrib = "
          "mean_err x predicted share of the cell's cycles):\n";
    TablePrinter table({"workload", "service", "cluster", "preds",
                        "outl", "audits", "fail", "err_mean",
                        "ci95", "contrib", "drift"});
    for (const BudgetRow &row : budget) {
        const obs::AccuracyEntry &e = row.entry;
        std::string svc =
            e.service < numServiceTypes
                ? serviceName(static_cast<ServiceType>(e.service))
                : std::to_string(e.service);
        std::string contrib = "-";
        if (e.errCount && row.cell->accuracy.totalCycles) {
            contrib = TablePrinter::pct(
                e.errMean *
                    static_cast<double>(e.predictedCycles) /
                    static_cast<double>(
                        row.cell->accuracy.totalCycles),
                3);
        }
        table.addRow(
            {row.cell->cell.workload, svc,
             e.cluster == obs::accuracyNoCluster
                 ? "-"
                 : std::to_string(e.cluster),
             std::to_string(e.predictions),
             std::to_string(e.outlierPredictions),
             std::to_string(e.audits),
             std::to_string(e.auditFailures),
             e.errCount ? TablePrinter::pct(e.errMean, 2) : "-",
             e.hasCi ? TablePrinter::pct(e.ci95, 2) : "-", contrib,
             e.drift ? "YES" : "-"});
    }
    table.print(os);
}

} // namespace osp
