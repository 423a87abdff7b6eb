/**
 * @file
 * One timed simulation, run in a fresh process so that process-wide
 * lazy state is paid the way a single-run user pays it.
 *
 *   probe --workload ab-rand --level ooo-cache [--scale 1]
 *         [--seed 42] [--app-only] [--accel] [--traced]
 *         [--trace-out spans.json] [--intervals log.txt]
 *
 * The probe measures each layer from outside, by timing calls into
 * the simulator's public functions: makeMachine() (workload + kernel
 * construction), Machine::run() at the requested detail level and,
 * with --accel --traced, every call into the Accelerator through a
 * forwarding ServiceController. --traced also attaches the
 * simulator's own telemetry sink so its counters can be reported.
 * It prints one JSON object on stdout with the host times, the run
 * totals and the counters; with --trace-out it writes its spans in
 * the chrome://tracing format, and with --intervals one line per
 * OS-service invocation: type, instructions, detailed (0/1), cycles.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/accelerator.hh"
#include "driver/experiments.hh"
#include "obs/telemetry.hh"
#include "sim/detail_level.hh"
#include "workload/registry.hh"

namespace
{

using namespace osp;
using Clock = std::chrono::steady_clock;

/** Microseconds on the monotonic clock the runner also reads. */
double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name;
    const char *parent;
    double startUs;
    double durUs;
};

/** Spans kept in memory and written when the probe ends. */
std::vector<Span> spans;

/**
 * Forwards every ServiceController call to the Accelerator and times
 * the two that do work. Busy time is the sum of the call durations.
 */
class TimedController final : public ServiceController
{
  public:
    explicit TimedController(ServiceController &inner) : inner_(inner)
    {
    }

    bool wantsOpMix() const override { return inner_.wantsOpMix(); }

    DetailLevel
    chooseLevel(ServiceType type) override
    {
        double t0 = nowUs();
        DetailLevel level = inner_.chooseLevel(type);
        double dt = nowUs() - t0;
        chooseUs += dt;
        ++chooseCalls;
        spans.push_back({"core.chooseLevel", "Machine::run", t0, dt});
        return level;
    }

    Prediction
    onServiceEnd(const IntervalOutcome &outcome) override
    {
        double t0 = nowUs();
        Prediction p = inner_.onServiceEnd(outcome);
        double dt = nowUs() - t0;
        endUs += dt;
        ++endCalls;
        spans.push_back({"core.onServiceEnd", "Machine::run", t0, dt});
        return p;
    }

    double chooseUs = 0.0;
    double endUs = 0.0;
    std::uint64_t chooseCalls = 0;
    std::uint64_t endCalls = 0;

  private:
    ServiceController &inner_;
};

bool
parseLevel(const std::string &name, DetailLevel &out)
{
    for (DetailLevel l :
         {DetailLevel::Emulate, DetailLevel::InOrderNoCache,
          DetailLevel::InOrderCache, DetailLevel::OooNoCache,
          DetailLevel::OooCache}) {
        if (name == detailLevelName(l)) {
            out = l;
            return true;
        }
    }
    return false;
}

void
printMem(const char *key, const HierarchyCounts &m)
{
    std::printf("\"%s\": {\"l1i_accesses\": %llu, \"l1i_misses\": %llu, "
                "\"l1d_accesses\": %llu, \"l1d_misses\": %llu, "
                "\"l2_accesses\": %llu, \"l2_misses\": %llu}",
                key, (unsigned long long)m.l1iAccesses,
                (unsigned long long)m.l1iMisses,
                (unsigned long long)m.l1dAccesses,
                (unsigned long long)m.l1dMisses,
                (unsigned long long)m.l2Accesses,
                (unsigned long long)m.l2Misses);
}

void
writeSpans(const std::string &path)
{
    std::ofstream os(path);
    os << "[";
    const char *sep = "";
    char buf[256];
    for (const Span &s : spans) {
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"parent\": \"%s\"}}",
                      sep, s.name, s.startUs, s.durUs, s.parent);
        os << buf;
        sep = ",";
    }
    os << "\n]\n";
}

int
usage()
{
    std::cerr << "usage: probe --workload NAME --level LEVEL "
                 "[--scale X] [--seed S] [--app-only] [--accel] "
                 "[--traced] [--trace-out PATH] [--intervals PATH]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string levelName;
    std::string traceOut;
    std::string intervalsOut;
    double scale = 1.0;
    std::uint64_t seed = experimentSeed;
    bool appOnly = false;
    bool accel = false;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool more = i + 1 < argc;
        if (a == "--workload" && more)
            workload = argv[++i];
        else if (a == "--level" && more)
            levelName = argv[++i];
        else if (a == "--scale" && more)
            scale = std::strtod(argv[++i], nullptr);
        else if (a == "--seed" && more)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--trace-out" && more)
            traceOut = argv[++i];
        else if (a == "--intervals" && more)
            intervalsOut = argv[++i];
        else if (a == "--app-only")
            appOnly = true;
        else if (a == "--accel")
            accel = true;
        else if (a == "--traced")
            traced = true;
        else
            return usage();
    }
    MachineConfig cfg;
    if (!isWorkload(workload) || !parseLevel(levelName, cfg.level) ||
        !(scale > 0.0))
        return usage();
    cfg.seed = seed;
    cfg.appOnly = appOnly;
    cfg.hier.l2.sizeBytes = 1024 * 1024;
    cfg.recordIntervals = !intervalsOut.empty();

    double t0 = nowUs();
    std::unique_ptr<Machine> machine = makeMachine(workload, cfg, scale);
    double makeUs = nowUs() - t0;
    spans.push_back({"makeMachine", "probe", t0, makeUs});

    obs::Telemetry telemetry;
    if (traced)
        machine->setTelemetry(&telemetry);
    Accelerator accelerator(experimentPredictor());
    TimedController timed(accelerator);
    if (accel)
        machine->setController(traced ? static_cast<ServiceController *>(
                                            &timed)
                                      : &accelerator);

    t0 = nowUs();
    const RunTotals &t = machine->run();
    double runUs = nowUs() - t0;
    spans.push_back({"Machine::run", "probe", t0, runUs});

    std::uint64_t services = 0;
    for (const ServiceTotals &s : t.perService)
        services += s.invocations ? 1 : 0;

    std::printf("{\"make_s\": %.9f, \"run_s\": %.9f, ", makeUs * 1e-6,
                runUs * 1e-6);
    std::printf("\"totals\": {\"app_insts\": %llu, \"os_insts\": %llu, "
                "\"os_pred_insts\": %llu, \"app_cycles\": %llu, "
                "\"os_sim_cycles\": %llu, \"os_pred_cycles\": %llu, "
                "\"os_invocations\": %llu, \"os_simulated\": %llu, "
                "\"os_predicted\": %llu, \"service_types\": %llu}, ",
                (unsigned long long)t.appInsts,
                (unsigned long long)t.osInsts,
                (unsigned long long)t.osPredInsts,
                (unsigned long long)t.appCycles,
                (unsigned long long)t.osSimCycles,
                (unsigned long long)t.osPredCycles,
                (unsigned long long)t.osInvocations,
                (unsigned long long)t.osSimulated,
                (unsigned long long)t.osPredicted,
                (unsigned long long)services);
    printMem("measured_mem", t.measuredMem);
    std::printf(", ");
    printMem("predicted_mem", t.predictedMem);
    if (accel) {
        ServicePredictor::Stats s = accelerator.aggregateStats();
        std::printf(", \"predictor\": {\"learned\": %llu, "
                    "\"predicted\": %llu, \"outliers\": %llu, "
                    "\"relearn_events\": %llu, \"audits\": %llu, "
                    "\"audit_failures\": %llu}",
                    (unsigned long long)s.learnedRuns,
                    (unsigned long long)s.predictedRuns,
                    (unsigned long long)s.outliers,
                    (unsigned long long)s.relearnEvents,
                    (unsigned long long)s.audits,
                    (unsigned long long)s.auditFailures);
    }
    if (accel && traced)
        std::printf(", \"controller\": {\"choose_s\": %.9f, "
                    "\"end_s\": %.9f, \"choose_calls\": %llu, "
                    "\"end_calls\": %llu}",
                    timed.chooseUs * 1e-6, timed.endUs * 1e-6,
                    (unsigned long long)timed.chooseCalls,
                    (unsigned long long)timed.endCalls);
    if (traced) {
        std::printf(", \"counters\": {");
        const char *sep = "";
        for (const auto &c : telemetry.registry.snapshot().counters) {
            std::printf("%s\"%s.%s\": %llu", sep, c.component.c_str(),
                        c.name.c_str(), (unsigned long long)c.value);
            sep = ", ";
        }
        std::printf("}");
    }
    std::printf("}\n");

    if (!traceOut.empty())
        writeSpans(traceOut);
    if (!intervalsOut.empty()) {
        std::ofstream os(intervalsOut);
        for (const IntervalRecord &r : machine->intervals())
            os << static_cast<int>(r.type) << ' ' << r.insts << ' '
               << r.detailed << ' ' << r.cycles << '\n';
    }
    return 0;
}
