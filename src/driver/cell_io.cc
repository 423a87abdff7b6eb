#include "cell_io.hh"

#include "obs/snapshot_io.hh"
#include "util/json.hh"

namespace osp
{

namespace
{

/** Signals a malformed document to decodeCellResult's catch. */
struct BadDocument
{
};

/** Object member access that throws BadDocument instead of
 *  panicking — a corrupt cache value must decode to nullopt. */
const JsonValue &
field(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        throw BadDocument{};
    return *v;
}

// Typed leaf reads: a leaf of the wrong type throws BadDocument
// instead of reaching a JsonValue accessor that panics (numbers) or
// reads a default (strings, bools). Counts are written as unsigned
// integers, so a count that parses as anything else is corrupt.

std::uint64_t
uintOf(const JsonValue &v)
{
    if (v.kind() != JsonValue::Kind::Uint)
        throw BadDocument{};
    return v.asUint();
}

double
doubleOf(const JsonValue &v)
{
    if (!v.isNumber())
        throw BadDocument{};
    return v.asDouble();
}

bool
boolOf(const JsonValue &v)
{
    if (!v.isBool())
        throw BadDocument{};
    return v.asBool();
}

const std::string &
stringOf(const JsonValue &v)
{
    if (!v.isString())
        throw BadDocument{};
    return v.asString();
}

// Encoders. Compact array forms keep the cache values small where
// the data is regular (trace events, counters); everything else is
// a keyed object so the format stays debuggable with jq.

JsonValue
memToJson(const HierarchyCounts &m)
{
    JsonValue v = JsonValue::array();
    v.append(m.l1iAccesses);
    v.append(m.l1iMisses);
    v.append(m.l1dAccesses);
    v.append(m.l1dMisses);
    v.append(m.l2Accesses);
    v.append(m.l2Misses);
    return v;
}

bool
memFromJson(const JsonValue &v, HierarchyCounts &m)
{
    if (!v.isArray() || v.size() != 6)
        return false;
    m.l1iAccesses = uintOf(v.at(0));
    m.l1iMisses = uintOf(v.at(1));
    m.l1dAccesses = uintOf(v.at(2));
    m.l1dMisses = uintOf(v.at(3));
    m.l2Accesses = uintOf(v.at(4));
    m.l2Misses = uintOf(v.at(5));
    return true;
}

JsonValue
totalsToJson(const RunTotals &t)
{
    JsonValue v = JsonValue::object();
    v.add("app_insts", t.appInsts);
    v.add("os_insts", t.osInsts);
    v.add("os_pred_insts", t.osPredInsts);
    v.add("app_cycles", t.appCycles);
    v.add("os_sim_cycles", t.osSimCycles);
    v.add("os_pred_cycles", t.osPredCycles);
    v.add("os_invocations", t.osInvocations);
    v.add("os_simulated", t.osSimulated);
    v.add("os_predicted", t.osPredicted);
    v.add("measured_mem", memToJson(t.measuredMem));
    v.add("predicted_mem", memToJson(t.predictedMem));
    JsonValue services = JsonValue::array();
    for (const ServiceTotals &s : t.perService) {
        JsonValue sv = JsonValue::array();
        sv.append(s.invocations);
        sv.append(s.simulated);
        sv.append(s.predicted);
        sv.append(s.insts);
        sv.append(s.cycles);
        services.append(std::move(sv));
    }
    v.add("per_service", std::move(services));
    return v;
}

bool
totalsFromJson(const JsonValue &v, RunTotals &t)
{
    if (!v.isObject())
        return false;
    const JsonValue *services = v.find("per_service");
    if (!services || !services->isArray() ||
        services->size() != t.perService.size())
        return false;
    t.appInsts = uintOf(field(v, "app_insts"));
    t.osInsts = uintOf(field(v, "os_insts"));
    t.osPredInsts = uintOf(field(v, "os_pred_insts"));
    t.appCycles = uintOf(field(v, "app_cycles"));
    t.osSimCycles = uintOf(field(v, "os_sim_cycles"));
    t.osPredCycles = uintOf(field(v, "os_pred_cycles"));
    t.osInvocations = uintOf(field(v, "os_invocations"));
    t.osSimulated = uintOf(field(v, "os_simulated"));
    t.osPredicted = uintOf(field(v, "os_predicted"));
    if (!memFromJson(field(v, "measured_mem"), t.measuredMem) ||
        !memFromJson(field(v, "predicted_mem"), t.predictedMem))
        return false;
    for (std::size_t i = 0; i < t.perService.size(); ++i) {
        const JsonValue &sv = services->at(i);
        if (!sv.isArray() || sv.size() != 5)
            return false;
        ServiceTotals &s = t.perService[i];
        s.invocations = uintOf(sv.at(0));
        s.simulated = uintOf(sv.at(1));
        s.predicted = uintOf(sv.at(2));
        s.insts = uintOf(sv.at(3));
        s.cycles = uintOf(sv.at(4));
    }
    return true;
}

JsonValue
statsToJson(const ServicePredictor::Stats &s)
{
    JsonValue v = JsonValue::array();
    v.append(s.warmupRuns);
    v.append(s.learnedRuns);
    v.append(s.predictedRuns);
    v.append(s.outliers);
    v.append(s.relearnEvents);
    v.append(s.audits);
    v.append(s.auditFailures);
    v.append(s.auditWarmupRuns);
    v.append(s.driftResets);
    return v;
}

bool
statsFromJson(const JsonValue &v, ServicePredictor::Stats &s)
{
    if (!v.isArray() || v.size() != 9)
        return false;
    s.warmupRuns = uintOf(v.at(0));
    s.learnedRuns = uintOf(v.at(1));
    s.predictedRuns = uintOf(v.at(2));
    s.outliers = uintOf(v.at(3));
    s.relearnEvents = uintOf(v.at(4));
    s.audits = uintOf(v.at(5));
    s.auditFailures = uintOf(v.at(6));
    s.auditWarmupRuns = uintOf(v.at(7));
    s.driftResets = uintOf(v.at(8));
    return true;
}

JsonValue
accuracyToJson(const obs::AccuracySnapshot &a)
{
    JsonValue v = JsonValue::object();
    v.add("tolerance", a.tolerance);
    v.add("total_cycles", a.totalCycles);
    v.add("predicted_cycles", a.predictedCycles);
    JsonValue entries = JsonValue::array();
    for (const obs::AccuracyEntry &e : a.entries) {
        JsonValue ev = JsonValue::object();
        ev.add("service", static_cast<std::uint64_t>(e.service));
        ev.add("cluster", static_cast<std::uint64_t>(e.cluster));
        ev.add("predictions", e.predictions);
        ev.add("outlier_predictions", e.outlierPredictions);
        ev.add("predicted_cycles", e.predictedCycles);
        ev.add("audits", e.audits);
        ev.add("audit_failures", e.auditFailures);
        ev.add("err_count", e.errCount);
        ev.add("err_mean", e.errMean);
        ev.add("err_m2", e.errM2);
        ev.add("err_min", e.errMin);
        ev.add("err_max", e.errMax);
        ev.add("miss_count", e.missCount);
        ev.add("miss_mean", e.missMean);
        ev.add("ipc_count", e.ipcCount);
        ev.add("ipc_mean", e.ipcMean);
        ev.add("ci95", e.ci95);
        ev.add("has_ci", e.hasCi);
        ev.add("drift", e.drift);
        entries.append(std::move(ev));
    }
    v.add("entries", std::move(entries));
    return v;
}

bool
accuracyFromJson(const JsonValue &v, obs::AccuracySnapshot &a)
{
    if (!v.isObject())
        return false;
    const JsonValue *entries = v.find("entries");
    if (!entries || !entries->isArray())
        return false;
    a.tolerance = doubleOf(field(v, "tolerance"));
    a.totalCycles = uintOf(field(v, "total_cycles"));
    a.predictedCycles = uintOf(field(v, "predicted_cycles"));
    for (const JsonValue &ev : entries->elements()) {
        if (!ev.isObject())
            return false;
        obs::AccuracyEntry e;
        e.service = static_cast<std::uint8_t>(
            uintOf(field(ev, "service")));
        e.cluster = static_cast<std::uint32_t>(
            uintOf(field(ev, "cluster")));
        e.predictions = uintOf(field(ev, "predictions"));
        e.outlierPredictions = uintOf(field(ev, "outlier_predictions"));
        e.predictedCycles = uintOf(field(ev, "predicted_cycles"));
        e.audits = uintOf(field(ev, "audits"));
        e.auditFailures = uintOf(field(ev, "audit_failures"));
        e.errCount = uintOf(field(ev, "err_count"));
        e.errMean = doubleOf(field(ev, "err_mean"));
        e.errM2 = doubleOf(field(ev, "err_m2"));
        e.errMin = doubleOf(field(ev, "err_min"));
        e.errMax = doubleOf(field(ev, "err_max"));
        e.missCount = uintOf(field(ev, "miss_count"));
        e.missMean = doubleOf(field(ev, "miss_mean"));
        e.ipcCount = uintOf(field(ev, "ipc_count"));
        e.ipcMean = doubleOf(field(ev, "ipc_mean"));
        e.ci95 = doubleOf(field(ev, "ci95"));
        e.hasCi = boolOf(field(ev, "has_ci"));
        e.drift = boolOf(field(ev, "drift"));
        a.entries.push_back(e);
    }
    return true;
}

} // namespace

std::string
encodeCellResult(const CellResult &r)
{
    JsonValue doc = JsonValue::object();
    doc.add("schema", cellSchema);

    JsonValue cell = JsonValue::object();
    cell.add("index", static_cast<std::uint64_t>(r.cell.index));
    cell.add("workload", r.cell.workload);
    cell.add("mode", static_cast<std::uint64_t>(r.cell.mode));
    cell.add("predictor_index",
             static_cast<std::uint64_t>(r.cell.predictorIndex));
    cell.add("pollution_index",
             static_cast<std::uint64_t>(r.cell.pollutionIndex));
    cell.add("l2_bytes", r.cell.l2Bytes);
    cell.add("seed_index", r.cell.seedIndex);
    cell.add("seed", r.cell.seed);
    doc.add("cell", std::move(cell));

    if (r.failed) {
        doc.add("error", r.error);
        return doc.dump(-1);
    }

    doc.add("totals", totalsToJson(r.totals));
    if (r.hasStats)
        doc.add("stats", statsToJson(r.stats));
    doc.add("telemetry", obs::metricsSnapshotToJson(r.telemetry));

    JsonValue trace_info = JsonValue::array();
    trace_info.append(
        static_cast<std::uint64_t>(r.traceInfo.capacity));
    trace_info.append(r.traceInfo.recorded);
    trace_info.append(r.traceInfo.dropped);
    doc.add("trace_info", std::move(trace_info));

    doc.add("accuracy", accuracyToJson(r.accuracy));

    JsonValue events = JsonValue::array();
    for (const obs::TraceEvent &ev : r.trace) {
        JsonValue e = JsonValue::array();
        e.append(ev.tick);
        e.append(ev.a);
        e.append(ev.b);
        e.append(static_cast<std::uint64_t>(ev.kind));
        e.append(static_cast<std::uint64_t>(ev.service));
        events.append(std::move(e));
    }
    doc.add("trace", std::move(events));

    if (!r.pltProfile.empty())
        doc.add("plt_profile", r.pltProfile);

    // Sampled cells carry their measured/estimated sample section
    // (oracle comparisons are aggregator-derived and deliberately
    // absent: a cached cell must not depend on other cells).
    if (r.sample.present) {
        const CellSampleSection &s = r.sample;
        JsonValue sv = JsonValue::object();
        sv.add("interval_len", s.intervalLen);
        sv.add("num_intervals", s.numIntervals);
        sv.add("num_strata", s.numStrata);
        sv.add("sampled_intervals", s.sampledIntervals);
        sv.add("tail_insts", s.tailInsts);
        sv.add("tail_cycles", s.tailCycles);
        sv.add("detailed_app_insts", s.detailedAppInsts);
        sv.add("ff_app_insts", s.ffAppInsts);
        sv.add("est_app_cycles", s.estAppCycles);
        sv.add("est_total_cycles", s.estTotalCycles);
        sv.add("ci95_half", s.ciHalfWidth);
        sv.add("df", s.df);
        sv.add("has_ci", s.hasCi);
        sv.add("detailed_fraction", s.detailedFraction);
        JsonValue strata = JsonValue::array();
        for (const StratumEstimate &h : s.strata) {
            JsonValue row = JsonValue::array();
            row.append(h.population);
            row.append(h.sampled);
            row.append(h.mean);
            row.append(h.sampleVar);
            strata.append(std::move(row));
        }
        sv.add("strata", std::move(strata));
        doc.add("sample", std::move(sv));
    }
    return doc.dump(-1);
}

std::optional<CellResult>
decodeCellResult(std::string_view text)
try {
    bool ok = false;
    JsonValue doc = JsonValue::parse(text, &ok);
    if (!ok || !doc.isObject())
        return std::nullopt;
    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != cellSchema)
        return std::nullopt;
    const JsonValue *cell = doc.find("cell");
    if (!cell || !cell->isObject())
        return std::nullopt;

    CellResult r;
    r.cell.index =
        static_cast<std::size_t>(uintOf(field(*cell, "index")));
    r.cell.workload = stringOf(field(*cell, "workload"));
    r.cell.mode = static_cast<RunMode>(uintOf(field(*cell, "mode")));
    r.cell.predictorIndex = static_cast<std::size_t>(
        uintOf(field(*cell, "predictor_index")));
    r.cell.pollutionIndex = static_cast<std::size_t>(
        uintOf(field(*cell, "pollution_index")));
    r.cell.l2Bytes = uintOf(field(*cell, "l2_bytes"));
    r.cell.seedIndex = uintOf(field(*cell, "seed_index"));
    r.cell.seed = uintOf(field(*cell, "seed"));

    if (const JsonValue *error = doc.find("error")) {
        r.failed = true;
        r.error = stringOf(*error);
        return r;
    }

    const JsonValue *totals = doc.find("totals");
    const JsonValue *telemetry = doc.find("telemetry");
    const JsonValue *trace_info = doc.find("trace_info");
    const JsonValue *accuracy = doc.find("accuracy");
    const JsonValue *trace = doc.find("trace");
    if (!totals || !telemetry || !trace_info || !accuracy ||
        !trace || !trace->isArray())
        return std::nullopt;
    if (!totalsFromJson(*totals, r.totals))
        return std::nullopt;
    if (const JsonValue *stats = doc.find("stats")) {
        if (!statsFromJson(*stats, r.stats))
            return std::nullopt;
        r.hasStats = true;
    }
    if (!obs::metricsSnapshotFromJson(*telemetry, r.telemetry))
        return std::nullopt;
    if (!trace_info->isArray() || trace_info->size() != 3)
        return std::nullopt;
    r.traceInfo.capacity =
        static_cast<std::size_t>(uintOf(trace_info->at(0)));
    r.traceInfo.recorded = uintOf(trace_info->at(1));
    r.traceInfo.dropped = uintOf(trace_info->at(2));
    if (!accuracyFromJson(*accuracy, r.accuracy))
        return std::nullopt;
    for (const JsonValue &e : trace->elements()) {
        if (!e.isArray() || e.size() != 5)
            return std::nullopt;
        obs::TraceEvent ev;
        ev.tick = uintOf(e.at(0));
        ev.a = uintOf(e.at(1));
        ev.b = uintOf(e.at(2));
        ev.kind =
            static_cast<obs::TraceEventKind>(uintOf(e.at(3)));
        ev.service =
            static_cast<std::uint8_t>(uintOf(e.at(4)));
        r.trace.push_back(ev);
    }
    if (const JsonValue *profile = doc.find("plt_profile"))
        r.pltProfile = stringOf(*profile);

    // A sampled-mode cell without its sample section is a payload
    // from a stale schema: reject it (decoding to a miss) rather
    // than assembling a document with a silently absent estimate.
    const JsonValue *sample = doc.find("sample");
    if (isSampledMode(r.cell.mode) &&
        (!sample || !sample->isObject()))
        return std::nullopt;
    if (sample && sample->isObject()) {
        CellSampleSection &s = r.sample;
        s.present = true;
        s.intervalLen = uintOf(field(*sample, "interval_len"));
        s.numIntervals = uintOf(field(*sample, "num_intervals"));
        s.numStrata = uintOf(field(*sample, "num_strata"));
        s.sampledIntervals =
            uintOf(field(*sample, "sampled_intervals"));
        s.tailInsts = uintOf(field(*sample, "tail_insts"));
        s.tailCycles = uintOf(field(*sample, "tail_cycles"));
        s.detailedAppInsts =
            uintOf(field(*sample, "detailed_app_insts"));
        s.ffAppInsts = uintOf(field(*sample, "ff_app_insts"));
        s.estAppCycles =
            doubleOf(field(*sample, "est_app_cycles"));
        s.estTotalCycles =
            doubleOf(field(*sample, "est_total_cycles"));
        s.ciHalfWidth = doubleOf(field(*sample, "ci95_half"));
        s.df = uintOf(field(*sample, "df"));
        s.hasCi = boolOf(field(*sample, "has_ci"));
        s.detailedFraction =
            doubleOf(field(*sample, "detailed_fraction"));
        const JsonValue &strata = field(*sample, "strata");
        if (!strata.isArray())
            return std::nullopt;
        for (const JsonValue &row : strata.elements()) {
            if (!row.isArray() || row.size() != 4)
                return std::nullopt;
            StratumEstimate h;
            h.population = uintOf(row.at(0));
            h.sampled = uintOf(row.at(1));
            h.mean = doubleOf(row.at(2));
            h.sampleVar = doubleOf(row.at(3));
            r.sample.strata.push_back(h);
        }
    }
    return r;
} catch (const BadDocument &) {
    return std::nullopt;
}

} // namespace osp
