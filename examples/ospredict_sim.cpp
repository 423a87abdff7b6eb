/**
 * @file
 * ospredict-sim: the command-line driver a downstream user would
 * actually run. Wraps the whole stack — workload registry, machine
 * configuration, the accelerator, profile save/load — behind flags.
 *
 * Examples:
 *   ospredict_sim --workload ab-rand
 *   ospredict_sim --workload iperf --l2 512K --no-accel
 *   ospredict_sim --workload ab-seq --strategy eager --scale 2
 *   ospredict_sim --workload ab-rand --save-profile ab.plt
 *   ospredict_sim --workload ab-rand --load-profile ab.plt
 *   ospredict_sim --workload du --csv
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/accelerator.hh"
#include "core/report.hh"
#include "util/table.hh"
#include "workload/registry.hh"

namespace
{

using namespace osp;

void
usage()
{
    std::cout <<
        "ospredict-sim: accelerated full-system simulation\n"
        "\n"
        "  --workload NAME     one of:";
    for (const auto &n : allWorkloads())
        std::cout << " " << n;
    for (const auto &n : extraWorkloads())
        std::cout << " " << n;
    std::cout <<
        "\n"
        "  --scale F           work-volume scale (default 1.0)\n"
        "  --seed N            master seed (default 42)\n"
        "  --l2 SIZE           L2 size, e.g. 512K, 1M, 4M "
        "(default 1M)\n"
        "  --cpu MODEL         ooo | inorder (default ooo)\n"
        "  --no-accel          full detailed simulation only\n"
        "  --app-only          application-only simulation\n"
        "  --strategy S        best-match | eager | delayed | "
        "statistical\n"
        "  --window N          learning window (default 100)\n"
        "  --save-profile F    write the learned profile to F\n"
        "  --load-profile F    warm-start from a saved profile\n"
        "  --services          per-service breakdown\n"
        "  --csv               machine-readable output\n";
}

std::uint64_t
parseSize(const std::string &s)
{
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    std::uint64_t mult = 1;
    if (end && *end) {
        switch (*end) {
          case 'k': case 'K': mult = 1024; break;
          case 'm': case 'M': mult = 1024 * 1024; break;
          case 'g': case 'G': mult = 1024 * 1024 * 1024; break;
          default:
            std::cerr << "bad size suffix in '" << s << "'\n";
            std::exit(1);
        }
    }
    return static_cast<std::uint64_t>(v * static_cast<double>(mult));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace osp;

    std::string workload = "ab-rand";
    double scale = 1.0;
    MachineConfig cfg;
    cfg.seed = 42;
    bool accel_on = true;
    bool services = false;
    bool csv = false;
    PredictorParams pp;
    pp.learningWindow = 100;
    std::string save_profile;
    std::string load_profile;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--scale") {
            scale = std::atof(next().c_str());
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--l2") {
            cfg.hier.l2.sizeBytes = parseSize(next());
        } else if (arg == "--cpu") {
            std::string m = next();
            cfg.level = m == "inorder" ? DetailLevel::InOrderCache
                                       : DetailLevel::OooCache;
        } else if (arg == "--no-accel") {
            accel_on = false;
        } else if (arg == "--app-only") {
            cfg.appOnly = true;
            accel_on = false;
        } else if (arg == "--strategy") {
            std::string s = next();
            if (s == "best-match")
                pp.relearn.strategy = RelearnStrategy::BestMatch;
            else if (s == "eager")
                pp.relearn.strategy = RelearnStrategy::Eager;
            else if (s == "delayed")
                pp.relearn.strategy = RelearnStrategy::Delayed;
            else if (s == "statistical")
                pp.relearn.strategy = RelearnStrategy::Statistical;
            else {
                std::cerr << "unknown strategy '" << s << "'\n";
                return 1;
            }
        } else if (arg == "--window") {
            pp.learningWindow =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--save-profile") {
            save_profile = next();
        } else if (arg == "--load-profile") {
            load_profile = next();
        } else if (arg == "--services") {
            services = true;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown flag '" << arg
                      << "' (try --help)\n";
            return 1;
        }
    }

    if (!isWorkload(workload)) {
        std::cerr << "unknown workload '" << workload
                  << "' (try --help)\n";
        return 1;
    }

    auto machine = makeMachine(workload, cfg, scale);
    Accelerator accel(pp);
    if (accel_on) {
        if (!load_profile.empty()) {
            std::ifstream in(load_profile);
            if (!in || !accel.loadState(in)) {
                std::cerr << "failed to load profile '"
                          << load_profile << "'\n";
                return 1;
            }
        }
        machine->setController(&accel);
    }

    const RunTotals &t = machine->run();

    if (accel_on && !save_profile.empty()) {
        std::ofstream out(save_profile);
        if (!out) {
            std::cerr << "cannot write profile '" << save_profile
                      << "'\n";
            return 1;
        }
        accel.saveState(out);
    }

    TablePrinter summary({"metric", "value"});
    summary.addRow({"workload", workload});
    summary.addRow({"instructions",
                    std::to_string(t.totalInsts())});
    summary.addRow({"cycles", std::to_string(t.totalCycles())});
    summary.addRow({"ipc", TablePrinter::fmt(t.ipc(), 4)});
    summary.addRow({"os_inst_fraction",
                    TablePrinter::pct(t.osInstFraction())});
    summary.addRow({"os_invocations",
                    std::to_string(t.osInvocations)});
    if (accel_on) {
        summary.addRow({"coverage",
                        TablePrinter::pct(t.coverage())});
        summary.addRow(
            {"est_speedup_eq10",
             TablePrinter::fmt(estimatedSpeedup(t), 2) + "x"});
        auto stats = accel.aggregateStats();
        summary.addRow({"outliers",
                        std::to_string(stats.outliers)});
        summary.addRow({"relearn_events",
                        std::to_string(stats.relearnEvents)});
    }
    if (csv)
        summary.printCsv(std::cout);
    else
        summary.print(std::cout);

    if (services) {
        std::cout << "\n";
        TablePrinter per({"service", "invocations", "predicted",
                          "insts", "cycles"});
        for (int s = 0; s < numServiceTypes; ++s) {
            const auto &svc = t.perService[s];
            if (!svc.invocations)
                continue;
            per.addRow({serviceName(static_cast<ServiceType>(s)),
                        std::to_string(svc.invocations),
                        std::to_string(svc.predicted),
                        std::to_string(svc.insts),
                        std::to_string(svc.cycles)});
        }
        if (csv)
            per.printCsv(std::cout);
        else
            per.print(std::cout);
    }
    return 0;
}
