#include "branch_predictor.hh"

#include "util/logging.hh"

namespace osp
{

GshareBp::GshareBp(std::uint32_t history_bits)
    : historyBits(history_bits)
{
    if (history_bits == 0 || history_bits > 24)
        osp_fatal("GshareBp: history bits must be in [1, 24]");
    mask = (1u << historyBits) - 1;
    counters.assign(1u << historyBits, 1);  // weakly not-taken
}

bool
GshareBp::predict(Addr pc) const
{
    return counters[index(pc)] >= 2;
}

void
GshareBp::reset()
{
    counters.assign(counters.size(), 1);
    history = 0;
    lookups_ = 0;
    mispredicts_ = 0;
}

} // namespace osp
