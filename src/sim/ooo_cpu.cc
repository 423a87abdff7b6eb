#include "ooo_cpu.hh"

#include <algorithm>

#include "util/logging.hh"

namespace osp
{

OooCpu::OooCpu(const CpuParams &p, MemoryHierarchy *hierarchy,
               GshareBp *predictor)
    : params(p), hier(hierarchy), bp(predictor)
{
    if (params.windowSize == 0 || params.issueWidth == 0 ||
        params.retireWidth == 0) {
        osp_fatal("OooCpu: widths and window size must be >= 1");
    }
    rob.assign(params.windowSize, RobSlot());
    mshrBusyUntil.assign(std::max<std::uint32_t>(params.mshrs, 1), 0);
}

Cycles
OooCpu::producerReady(std::uint32_t dist, Cycles dflt) const
{
    if (dist == 0 || dist > params.windowSize)
        return dflt;
    if (seq < intervalSeq + dist)
        return dflt;  // producer predates this interval (drained)
    std::uint64_t producer = seq - dist;
    return rob[producer % params.windowSize].ready;
}

std::size_t
OooCpu::earliestMshr() const
{
    // Conditional moves: which MSHR frees first depends on the data,
    // so as a branch it mispredicts.
    std::size_t best = 0;
    Cycles soonest = mshrBusyUntil[0];
    for (std::size_t i = 1; i < mshrBusyUntil.size(); ++i) {
        Cycles t = mshrBusyUntil[i];
        bool earlier = t < soonest;
        soonest = earlier ? t : soonest;
        best = earlier ? i : best;
    }
    return best;
}

void
OooCpu::execute(const MicroOp &op, Owner owner)
{
    ++insts;

    // The per-op bookkeeping below uses conditional moves where the
    // outcome depends on the data (stalls, roll-overs, mispredicts):
    // as branches they mispredict often enough to dominate the cost
    // of the arithmetic they guard.

    // Reorder-buffer occupancy: the slot this op will take frees at
    // the commit time of the op windowSize earlier.
    std::uint64_t idx = seq % params.windowSize;
    if (seq >= intervalSeq + params.windowSize) {
        Cycles slot_free = rob[idx].commit;
        bool stall = fetchCycle < slot_free;
        fetchCycle = stall ? slot_free : fetchCycle;
        fetchedThisCycle = stall ? 0 : fetchedThisCycle;
    }

    // Instruction fetch: one cache access per new 64B line.
    if (hier) {
        Addr line = op.pc >> 6;
        if (line != lastFetchLine) {
            lastFetchLine = line;
            auto out = hier->access(op.pc, AccessType::InstFetch,
                                    owner, fetchCycle);
            if (out.l1Miss) {
                fetchCycle +=
                    out.latency - hier->params().l1iHitLatency;
                fetchedThisCycle = 0;
            }
        }
    }

    // Fetch/issue bandwidth.
    bool roll = fetchedThisCycle >= params.issueWidth;
    fetchCycle += roll;
    fetchedThisCycle = roll ? 1 : fetchedThisCycle + 1;
    Cycles dispatch = fetchCycle;

    Cycles dep_ready = producerReady(op.depDist, dispatch);
    Cycles ready;

    switch (op.cls) {
      case OpClass::IntAlu:
      case OpClass::FpAlu:
        ready = std::max(dispatch, dep_ready) + op.execLat;
        break;
      case OpClass::Load:
        {
            Cycles issue = std::max(dispatch, dep_ready);
            if (hier) {
                auto out = hier->accessL1(op.effAddr,
                                          AccessType::Load, owner);
                Cycles start = issue;
                if (out.l1Miss) {
                    // Long-latency miss: admission into an MSHR
                    // gates the request (and, transitively, the
                    // bus), so a saturated memory system
                    // back-pressures the core.
                    std::size_t m = earliestMshr();
                    start = std::max(issue, mshrBusyUntil[m]);
                    out = hier->accessBeyondL1(op.effAddr, false,
                                               owner, start, out);
                    mshrBusyUntil[m] = start + out.latency;
                }
                ready = start + out.latency;
            } else {
                ready = issue + params.noCacheMemLatency;
            }
            break;
        }
      case OpClass::Store:
        {
            Cycles issue = std::max(dispatch, dep_ready);
            ready = issue + 1;
            if (hier) {
                auto out = hier->accessL1(op.effAddr,
                                          AccessType::Store, owner);
                if (out.l1Miss) {
                    // A store miss occupies an MSHR like a load;
                    // the store retires once admitted (write
                    // buffer), hiding the fill latency but not
                    // unbounded memory-system pressure.
                    std::size_t m = earliestMshr();
                    Cycles start =
                        std::max(issue, mshrBusyUntil[m]);
                    out = hier->accessBeyondL1(op.effAddr, true,
                                               owner, start, out);
                    mshrBusyUntil[m] = start + out.latency;
                    ready = start + 1;
                }
            }
            break;
        }
      case OpClass::Branch:
      default:
        ready = std::max(dispatch, dep_ready) + 1;
        if (bp) {
            // Redirect fetch once a mispredicted branch resolves.
            bool correct = bp->predictAndUpdate(op.pc, op.taken);
            Cycles redirect = ready + params.mispredictPenalty;
            fetchCycle = correct ? fetchCycle : redirect;
            fetchedThisCycle = correct ? fetchedThisCycle : 0;
        }
        break;
    }

    // In-order commit under the retire-width constraint: an op that
    // commits in the cycle of the previous one takes the next retire
    // slot, or rolls over to the following cycle when none is left.
    bool same_cycle = ready <= lastCommit;
    bool full = same_cycle && committedThisCycle >= params.retireWidth;
    Cycles commit = std::max(ready, lastCommit) + full;
    committedThisCycle =
        same_cycle && !full ? committedThisCycle + 1 : 1;
    lastCommit = commit;

    rob[idx].ready = ready;
    rob[idx].commit = commit;
    ++seq;
}

Cycles
OooCpu::drain()
{
    Cycles cycles = lastCommit - intervalStart;
    intervalStart = lastCommit;
    // Serialize: the next interval starts fetching after the drain.
    fetchCycle = std::max(fetchCycle, lastCommit);
    fetchedThisCycle = 0;
    committedThisCycle = 0;
    intervalSeq = seq;
    lastFetchLine = ~static_cast<Addr>(0);
    return cycles;
}

void
OooCpu::reset()
{
    rob.assign(params.windowSize, RobSlot());
    mshrBusyUntil.assign(mshrBusyUntil.size(), 0);
    seq = 0;
    intervalSeq = 0;
    fetchCycle = 0;
    fetchedThisCycle = 0;
    lastCommit = 0;
    committedThisCycle = 0;
    lastFetchLine = ~static_cast<Addr>(0);
    intervalStart = 0;
    insts = 0;
}

} // namespace osp
