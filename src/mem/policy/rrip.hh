/**
 * @file
 * DRRIP (Jaleel et al., ISCA'10): Re-Reference Interval Prediction
 * with set-dueling between SRRIP and BRRIP insertion.
 */

#ifndef GARIBALDI_MEM_POLICY_RRIP_HH
#define GARIBALDI_MEM_POLICY_RRIP_HH

#include <vector>

#include "common/rng.hh"
#include "mem/policy/policy_base.hh"

namespace garibaldi
{

/**
 * DRRIP: promote to "near-immediate" (0) on hit, evict the first
 * "distant" (max) line, aging the whole set when none is distant.
 * Dedicated leader sets insert SRRIP-style ("long", max-1) and
 * BRRIP-style (distant, long 1 in 32); a PSEL counter picks the
 * winning insertion for follower sets.
 */
class DrripPolicy final : public PolicyBase
{
  public:
    DrripPolicy(std::uint32_t num_sets, std::uint32_t assoc,
                unsigned counter_bits, std::uint64_t seed);

    void onAccess(std::uint32_t set, const MemAccess &acc, bool hit);
    void onHit(std::uint32_t set, std::uint32_t way, const MemAccess &acc);
    std::uint32_t victim(std::uint32_t set, const MemAccess &acc);
    void onInsert(std::uint32_t set, std::uint32_t way, const MemAccess &acc);
    void promote(std::uint32_t set, std::uint32_t way);

    /** RRPV of (set, way); exposed for tests. */
    unsigned
    rrpvOf(std::uint32_t set, std::uint32_t way) const
    {
        return rrpv[std::size_t{set} * assoc + way];
    }

    /** Current PSEL value, exposed for the dueling convergence test. */
    int pselValue() const { return psel; }

  private:
    enum class SetRole : std::uint8_t { Follower, SrripLeader,
                                        BrripLeader };

    SetRole roleOf(std::uint32_t set) const;

    std::uint8_t &at(std::uint32_t set, std::uint32_t way)
    {
        return rrpv[std::size_t{set} * assoc + way];
    }

    unsigned maxRrpv;
    /** One byte per frame: an RRPV is at most maxRrpv <= 255. */
    std::vector<std::uint8_t> rrpv;
    Pcg32 rng;
    int psel = 0;
    int pselMax = 511;
    unsigned leaderStride;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_RRIP_HH
