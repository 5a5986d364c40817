/**
 * @file
 * Hawkeye (Jain & Lin, ISCA'16): OPTgen runs on sampled sets to label
 * each sampled access as OPT-hit or OPT-miss; a PC-indexed predictor
 * learns which load instructions are "cache-friendly"; the main cache
 * uses RRIP-style counters with friendly/averse insertion.
 */

#ifndef GARIBALDI_MEM_POLICY_HAWKEYE_HH
#define GARIBALDI_MEM_POLICY_HAWKEYE_HH

#include <vector>

#include "common/sat_counter.hh"
#include "common/zeroed_array.hh"
#include "mem/policy/optgen.hh"
#include "mem/policy/policy_base.hh"
#include "mem/policy/sampled_history.hh"

namespace garibaldi
{

/** Hawkeye replacement. */
class HawkeyePolicy final : public PolicyBase
{
  public:
    HawkeyePolicy(std::uint32_t num_sets, std::uint32_t assoc,
                  const PolicyParams &params);

    void onAccess(std::uint32_t set, const MemAccess &acc, bool hit);
    void onHit(std::uint32_t set, std::uint32_t way, const MemAccess &acc);
    std::uint32_t victim(std::uint32_t set, const MemAccess &acc);
    void onInsert(std::uint32_t set, std::uint32_t way, const MemAccess &acc);
    void promote(std::uint32_t set, std::uint32_t way);
    void onEvict(std::uint32_t set, std::uint32_t way);

    /** Host-prefetch the set's line row and, for a sampled set, its
     *  history header. */
    void
    prefetchSet(std::uint32_t set) const
    {
        prefetchHostLines(&lines[std::size_t{set} * assoc],
                          assoc * sizeof(LineState));
        history.prefetch(set);
    }

    /** Predictor verdict for a PC, exposed for tests. */
    bool isFriendly(Addr pc) const;

  private:
    static constexpr unsigned kPredictorBits = 13;
    static constexpr std::size_t kPredictorSize =
        std::size_t{1} << kPredictorBits;
    static constexpr unsigned kMaxRrpv = 7;

    static std::size_t pcIndex(Addr pc);

    /** 4 bytes: the RRPV, then the 13-bit PC signature and flags.
     *  The RRPV is stored as kMaxRrpv - RRPV, so all-zero is an
     *  invalid line at RRPV kMaxRrpv. */
    struct LineState
    {
        std::uint8_t rrpvGap;
        std::uint16_t pcSig : kPredictorBits;
        std::uint16_t friendly : 1;
        std::uint16_t valid : 1;

        unsigned rrpv() const { return kMaxRrpv - rrpvGap; }
        void
        setRrpv(unsigned v)
        {
            rrpvGap = static_cast<std::uint8_t>(kMaxRrpv - v);
        }
    };
    static_assert(sizeof(LineState) <= 4, "LineState must stay compact");

    LineState &line(std::uint32_t set, std::uint32_t way)
    {
        return lines[std::size_t{set} * assoc + way];
    }

    /** 3-bit counters of 2 bytes each: 16 KiB. */
    std::vector<SatCounter> predictor;
    ZeroedArray<LineState> lines; //!< all-zero = invalid, RRPV max
    OptGen optgen;
    /** Each sampled set's row is OPTgen's occupancy row. */
    SampledHistory history;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_HAWKEYE_HH
