/**
 * @file
 * The per-invocation performance record the predictor learns and
 * predicts: instruction count (the signature), cycles, and
 * memory-hierarchy counters (Sec. 4.3's PLT entry payload).
 */

#ifndef OSP_CORE_PERF_RECORD_HH
#define OSP_CORE_PERF_RECORD_HH

#include "mem/hierarchy.hh"
#include "util/types.hh"

namespace osp
{

/** One OS-service invocation's measured (or predicted) performance. */
struct ServiceMetrics
{
    InstCount insts = 0;
    Cycles cycles = 0;
    HierarchyCounts mem;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(insts) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

} // namespace osp

#endif // OSP_CORE_PERF_RECORD_HH
