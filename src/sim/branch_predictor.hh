/**
 * @file
 * A gshare dynamic branch predictor.
 *
 * The processor model of Sec. 5.1 has a 10-cycle misprediction
 * penalty; what fraction of branches pay it must come from a real
 * predictor, because OS code is characteristically branchier and
 * less predictable than application loops and that difference is a
 * large part of why OS IPC is low (Fig. 3b).
 */

#ifndef OSP_SIM_BRANCH_PREDICTOR_HH
#define OSP_SIM_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace osp
{

/**
 * Gshare: a table of 2-bit saturating counters indexed by
 * (pc ^ global history).
 */
class GshareBp
{
  public:
    /** @param history_bits global-history length; the table has
     *  2^history_bits counters. */
    explicit GshareBp(std::uint32_t history_bits = 12);

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Update with the architectural outcome and return whether the
     * prediction (made with the pre-update state) was correct.
     * Inline: every timed branch and every warmed one calls it.
     */
    bool
    predictAndUpdate(Addr pc, bool taken)
    {
        std::uint32_t idx = index(pc);
        std::uint8_t &ctr = counters[idx];
        bool correct = (ctr >= 2) == taken;

        // Branch-free: the outcome is what the caller could not
        // predict, so branching on it here would mispredict too.
        ++lookups_;
        mispredicts_ += !correct;
        std::uint8_t up = ctr + (ctr < 3);
        std::uint8_t down = ctr - (ctr > 0);
        ctr = taken ? up : down;

        history = ((history << 1) | (taken ? 1u : 0u)) & mask;
        return correct;
    }

    /** Number of predictions made via predictAndUpdate(). */
    std::uint64_t lookups() const { return lookups_; }

    /** Number of those that were wrong. */
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Misprediction ratio (0 when no lookups yet). */
    double
    mispredictRate() const
    {
        return lookups_ ? static_cast<double>(mispredicts_) /
                              static_cast<double>(lookups_)
                        : 0.0;
    }

    /** Clear tables, history and statistics. */
    void reset();

  private:
    std::uint32_t
    index(Addr pc) const
    {
        return (static_cast<std::uint32_t>(pc >> 2) ^ history) & mask;
    }

    std::uint32_t historyBits;
    std::uint32_t mask;
    std::uint32_t history = 0;
    std::vector<std::uint8_t> counters;
    std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace osp

#endif // OSP_SIM_BRANCH_PREDICTOR_HH
