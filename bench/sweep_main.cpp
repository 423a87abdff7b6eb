/**
 * @file
 * `sweep`: run any named experiment sweep through the parallel
 * runner and write machine-readable results.
 *
 *   sweep fig08 --threads 8 --out results.json
 *   sweep table2 --smoke --no-timing --out canonical.json
 *   sweep --list
 *
 * The emitted document follows the "ospredict-sweep-v1" schema
 * (src/driver/sweep.hh). With --no-timing the bytes are identical
 * for any --threads value at the same seed — CI runs the smoke
 * sweep at 1 and N threads and diffs the two files.
 *
 * With --store DIR every executed cell is recorded in a directory
 * of content-addressed files (src/driver/store_dir.hh);
 * --incremental replays them instead of re-simulating:
 *
 *   sweep table2 --store s --out cold.json
 *   sweep table2 --store s --incremental --out warm.json
 *   cmp cold.json warm.json
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bench_json.hh"
#include "common.hh"
#include "driver/cell_cache.hh"
#include "driver/experiments.hh"
#include "driver/store_dir.hh"
#include "driver/sweep.hh"
#include "util/hash.hh"

#include "osp_code_fingerprint.hh"

namespace
{

int
usage(int code)
{
    std::ostream &os = code ? std::cerr : std::cout;
    os << "usage: sweep <name> [options]\n"
          "       sweep --list\n"
          "\n"
          "options:\n"
          "  --threads N    worker threads (default: one per core)\n"
          "  --out PATH     write results JSON (default: "
          "results.json; '-' for stdout)\n"
          "  --seed S       base seed (default "
       << osp::experimentSeed
       << ")\n"
          "  --smoke        shrink work volume ~20x (also: "
          "OSPREDICT_SMOKE=1)\n"
          "  --no-timing    omit wall-clock fields (canonical, "
          "thread-count-invariant bytes)\n"
          "  --sample intervals=N,strata=K,rate=R[,alloc=A]\n"
          "                 enable stratified interval sampling: "
          "adds a sampled cell per Full baseline and a "
          "sampled-accel cell per Accelerated one (N = interval "
          "length in app instructions, K = strata, R = sampled "
          "fraction in (0,1], A = proportional|neyman). Folds into "
          "cached-cell identity; results gain the "
          "ospredict-sample-v1 section\n"
          "  --trace PATH   enable per-cell event tracing and dump "
          "the rings as chrome://tracing JSON\n"
          "  --accuracy-report PATH\n"
          "                 write the human-readable prediction-"
          "accuracy / error-budget tables ('-' for stdout)\n"
          "  --bench-json PATH\n"
          "                 merge this sweep's wall-clock into an "
          "ospredict-bench-v1 document (see "
          "tools/check_perf_baseline.py)\n"
          "  --log-level {silent,warn,inform}\n"
          "                 global verbosity (default inform)\n"
          "  --store DIR    persistent result store: a directory "
          "(created if absent) holding one checksummed file per "
          "executed cell, content-addressed by its expanded spec, "
          "seed and the simulator code fingerprint\n"
          "  --incremental  reuse cells cached in --store instead "
          "of re-simulating them (results are byte-identical to a "
          "cold run; a torn or corrupt file is a miss)\n"
          "  --store-stats PATH\n"
          "                 write the volatile cache statistics "
          "document ('-' for stdout; requires --store)\n"
          "  --plt {save,warm,warm,save}\n"
          "                 archive learned PLT profiles into the "
          "store (save) and/or warm-start predictors from archived "
          "ones (warm; changes simulated results and the cells' "
          "cache identity)\n"
          "  --fingerprint STR\n"
          "                 override the built-in code fingerprint "
          "(testing)\n";
    return code;
}

/** Parse "intervals=N,strata=K,rate=R[,alloc=A]" (any subset, any
 *  order; unset knobs keep their defaults). */
bool
parseSampleSpec(const std::string &text, osp::SampleParams &out)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return false;
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        if (val.empty())
            return false;
        if (key == "intervals") {
            out.intervalLen =
                std::strtoull(val.c_str(), nullptr, 10);
            if (out.intervalLen == 0)
                return false;
        } else if (key == "strata") {
            out.strata = static_cast<std::uint32_t>(
                std::strtoul(val.c_str(), nullptr, 10));
            if (out.strata == 0)
                return false;
        } else if (key == "rate") {
            out.rate = std::strtod(val.c_str(), nullptr);
            if (!(out.rate > 0.0) || out.rate > 1.0)
                return false;
        } else if (key == "alloc") {
            if (val == "proportional") {
                out.allocation =
                    osp::StratifyParams::Allocation::Proportional;
            } else if (val == "neyman") {
                out.allocation =
                    osp::StratifyParams::Allocation::Neyman;
            } else {
                return false;
            }
        } else {
            return false;
        }
    }
    out.enabled = true;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace osp;
    osp::bench::init(argc, argv);

    std::string name;
    std::string out_path = "results.json";
    std::string trace_path;
    std::string accuracy_path;
    std::string bench_json_path;
    std::string store_path;
    std::string store_stats_path;
    std::string fingerprint = OSP_CODE_FINGERPRINT;
    SampleParams sample;
    bool incremental = false;
    bool plt_save = false;
    bool plt_warm = false;
    std::uint64_t seed = experimentSeed;
    unsigned threads = 0;
    bool timing = true;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            for (const auto &n : namedSweeps())
                std::cout << n << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            return usage(0);
        } else if (arg == "--smoke") {
            // consumed by bench::init()
        } else if (arg == "--no-timing") {
            timing = false;
        } else if (arg == "--sample" && i + 1 < argc) {
            std::string sdesc = argv[++i];
            if (!parseSampleSpec(sdesc, sample)) {
                std::cerr << "sweep: bad --sample spec '" << sdesc
                          << "' (want intervals=N,strata=K,rate=R"
                             "[,alloc=proportional|neyman])\n";
                return usage(2);
            }
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--accuracy-report" && i + 1 < argc) {
            accuracy_path = argv[++i];
        } else if (arg == "--bench-json" && i + 1 < argc) {
            bench_json_path = argv[++i];
        } else if (arg == "--log-level" && i + 1 < argc) {
            std::string level = argv[++i];
            if (level == "silent") {
                setLogLevel(LogLevel::Silent);
            } else if (level == "warn") {
                setLogLevel(LogLevel::Warn);
            } else if (level == "inform") {
                setLogLevel(LogLevel::Inform);
            } else {
                std::cerr << "sweep: bad log level '" << level
                          << "'\n";
                return usage(2);
            }
        } else if (arg == "--store" && i + 1 < argc) {
            store_path = argv[++i];
        } else if (arg == "--incremental") {
            incremental = true;
        } else if (arg == "--store-stats" && i + 1 < argc) {
            store_stats_path = argv[++i];
        } else if (arg == "--plt" && i + 1 < argc) {
            std::string modes = argv[++i];
            plt_save = modes.find("save") != std::string::npos;
            plt_warm = modes.find("warm") != std::string::npos;
            if (!plt_save && !plt_warm) {
                std::cerr << "sweep: bad --plt mode '" << modes
                          << "' (want save, warm or warm,save)\n";
                return usage(2);
            }
        } else if (arg == "--fingerprint" && i + 1 < argc) {
            fingerprint = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (!arg.empty() && arg[0] != '-' && name.empty()) {
            name = arg;
        } else {
            std::cerr << "sweep: bad argument '" << arg << "'\n";
            return usage(2);
        }
    }
    if (name.empty())
        return usage(2);
    const auto &names = namedSweeps();
    if (std::find(names.begin(), names.end(), name) ==
        names.end()) {
        std::cerr << "sweep: unknown sweep '" << name
                  << "' (try --list)\n";
        return 2;
    }

    if (store_path.empty() &&
        (incremental || plt_save || plt_warm ||
         !store_stats_path.empty())) {
        std::cerr << "sweep: --incremental/--plt/--store-stats "
                     "require --store\n";
        return usage(2);
    }
    SweepSpec spec = makeNamedSweep(name, bench::smokeFactor(),
                                    bench::smokeMode());
    spec.baseSeed = seed;
    if (sample.enabled)
        applySweepSampling(spec, sample);

    RunnerOptions opts;
    opts.threads = threads;
    if (!trace_path.empty())
        opts.traceCapacity = 4096;

    std::filesystem::path store_dir;
    std::unique_ptr<CellCache> cache;
    std::map<std::string, std::string> warm_profiles;
    if (!store_path.empty()) {
        try {
            store_dir = openStoreDir(store_path);
            cache = std::make_unique<CellCache>(store_dir, fingerprint);
        } catch (const RemovedStoreFormat &e) {
            std::cerr << "sweep: " << e.what() << "\n";
            return 2;
        } catch (const std::exception &e) {
            std::cerr << "sweep: " << e.what() << "\n";
            return 1;
        }
        if (plt_warm) {
            PltArchive archive(store_dir);
            for (const std::string &w : spec.workloads) {
                std::optional<std::string> profile =
                    archive.load(w);
                if (!profile)
                    continue;
                // The profile changes the cells' simulated
                // results, so its hash is part of their identity.
                cache->setWarmProfileHash(
                    w, stableHash64(*profile));
                warm_profiles.emplace(w, std::move(*profile));
            }
        }
        opts.cache = cache.get();
        opts.incremental = incremental;
        if (!warm_profiles.empty())
            opts.warmProfiles = &warm_profiles;
    }

    SweepResult result;
    try {
        result = runSweep(spec, opts);
    } catch (const std::exception &e) {
        std::cerr << "sweep: " << e.what() << "\n";
        return 1;
    }

    JsonOptions jopts;
    jopts.includeTiming = timing;
    if (out_path == "-") {
        writeResultsJson(std::cout, result, jopts);
    } else {
        std::ofstream os(out_path);
        if (!os) {
            std::cerr << "sweep: cannot write " << out_path
                      << "\n";
            return 1;
        }
        writeResultsJson(os, result, jopts);
    }

    if (!trace_path.empty()) {
        std::ofstream ts(trace_path);
        if (!ts) {
            std::cerr << "sweep: cannot write " << trace_path
                      << "\n";
            return 1;
        }
        writeChromeTrace(ts, result);
        std::cerr << "sweep: trace -> " << trace_path << "\n";
    }

    if (!accuracy_path.empty()) {
        if (accuracy_path == "-") {
            writeAccuracyReport(std::cout, result);
        } else {
            std::ofstream as(accuracy_path);
            if (!as) {
                std::cerr << "sweep: cannot write "
                          << accuracy_path << "\n";
                return 1;
            }
            writeAccuracyReport(as, result);
            std::cerr << "sweep: accuracy report -> "
                      << accuracy_path << "\n";
        }
    }

    if (!bench_json_path.empty()) {
        // Wall-clock of the whole sweep: the end-to-end hot-path
        // number the perf gate tracks alongside the microbench
        // component rates.
        std::vector<bench::BenchMetric> metrics = {
            {"sweep_" + spec.name + "_wall_seconds",
             result.wallSeconds, "s"}};
        if (!bench::mergeBenchJson(bench_json_path, spec.smoke,
                                   metrics)) {
            return 1;
        }
        std::cerr << "sweep: bench json -> " << bench_json_path
                  << "\n";
    }

    if (plt_save) {
        // Archive one learned profile per workload: the first
        // accelerated, non-failed cell in index order (cached
        // cells round-trip their profile, so warm runs re-archive
        // the same bytes).
        PltArchive archive(store_dir);
        std::uint64_t archived = 0;
        for (const std::string &w : spec.workloads) {
            for (const CellResult &r : result.cells) {
                if (r.failed || r.cell.workload != w ||
                    r.pltProfile.empty())
                    continue;
                try {
                    archive.save(w, r.pltProfile);
                } catch (const std::exception &e) {
                    std::cerr << "sweep: " << e.what() << "\n";
                    return 1;
                }
                ++archived;
                break;
            }
        }
        std::cerr << "sweep: archived " << archived
                  << " PLT profile(s) -> " << store_path << "\n";
    }

    if (!store_stats_path.empty()) {
        JsonValue stats = cache->statsToJson();
        if (store_stats_path == "-") {
            stats.write(std::cout, 2);
            std::cout << "\n";
        } else {
            std::ofstream ss(store_stats_path);
            if (!ss) {
                std::cerr << "sweep: cannot write "
                          << store_stats_path << "\n";
                return 1;
            }
            stats.write(ss, 2);
            ss << "\n";
            std::cerr << "sweep: store stats -> "
                      << store_stats_path << "\n";
        }
    }

    std::cerr << "sweep " << spec.name << ": "
              << result.cells.size() << " cells in "
              << TablePrinter::fmt(result.wallSeconds, 2)
              << " s on " << result.threads << " thread(s)"
              << (spec.smoke ? " [smoke]" : "") << " -> "
              << out_path << "\n";
    return 0;
}
