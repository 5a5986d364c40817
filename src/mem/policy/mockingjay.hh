/**
 * @file
 * Mockingjay (Shah, Jain & Lin, HPCA'22), simplified: a sampled cache
 * measures per-PC reuse distances; a reuse-distance predictor (RDP)
 * drives per-line Estimated-Time-Remaining (ETR) counters that emulate
 * Belady's MIN — the victim is the line whose next use is farthest away
 * (largest |ETR|).  Prefetched lines are inserted as far-reuse until
 * demanded (prefetch-aware, as in the paper).
 */

#ifndef GARIBALDI_MEM_POLICY_MOCKINGJAY_HH
#define GARIBALDI_MEM_POLICY_MOCKINGJAY_HH

#include <vector>

#include "common/zeroed_array.hh"
#include "mem/policy/policy_base.hh"
#include "mem/policy/recency_stamps.hh"
#include "mem/policy/sampled_history.hh"

namespace garibaldi
{

/** Mockingjay replacement. */
class MockingjayPolicy final : public PolicyBase
{
  public:
    MockingjayPolicy(std::uint32_t num_sets, std::uint32_t assoc,
                     const PolicyParams &params);

    void onAccess(std::uint32_t set, const MemAccess &acc, bool hit);
    void onHit(std::uint32_t set, std::uint32_t way, const MemAccess &acc);
    std::uint32_t victim(std::uint32_t set, const MemAccess &acc);
    void onInsert(std::uint32_t set, std::uint32_t way, const MemAccess &acc);
    void promote(std::uint32_t set, std::uint32_t way);
    void onEvict(std::uint32_t set, std::uint32_t way);

    /** Host-prefetch the set's line row, promotion row and aging
     *  counter and, for a sampled set, its history header. */
    void
    prefetchSet(std::uint32_t set) const
    {
        prefetchHostLines(&lines[std::size_t{set} * assoc],
                          assoc * sizeof(LineState));
        promoted.prefetch(set);
        __builtin_prefetch(&agingCount[set]);
        history.prefetch(set);
    }

    /** Predicted reuse distance for a PC (set-access units); for tests. */
    std::uint32_t predictedRd(Addr pc) const;

    /** Effective ETR of (set, way); for tests. */
    int effectiveEtr(std::uint32_t set, std::uint32_t way) const;

  private:
    static constexpr unsigned kRdpBits = 14;
    static constexpr std::size_t kRdpSize = std::size_t{1} << kRdpBits;
    static constexpr std::uint16_t kUnknownRd = 0xffff;

    static std::size_t pcIndex(Addr pc);
    void train(std::size_t sig, std::uint32_t observed);

    /** 2 bytes: the ETR fits a byte because counterBits <= 8. */
    struct LineState
    {
        std::int8_t etr = 0;  //!< in granularity units, signed
        bool valid = false;
    };
    static_assert(sizeof(LineState) == 2, "LineState must stay compact");

    LineState &line(std::uint32_t set, std::uint32_t way)
    {
        return lines[std::size_t{set} * assoc + way];
    }

    const LineState &line(std::uint32_t set, std::uint32_t way) const
    {
        return lines[std::size_t{set} * assoc + way];
    }

    std::int8_t etrFromRd(std::uint32_t rd) const;

    std::uint32_t historyLen;
    int maxEtr;   //!< positive saturation for ETR counters
    int minEtr;   //!< negative saturation
    std::uint32_t granularity; //!< set accesses per ETR decrement

    std::vector<std::uint16_t> rdp;
    /** The sampled cache. */
    SampledHistory history;
    ZeroedArray<LineState> lines; //!< all-zero = invalid, ETR 0
    /** QBS promotion order (victim tie-break); cleared on eviction. */
    RecencyStamps promoted;
    std::vector<std::uint32_t> agingCount; //!< per-set access counter
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_MOCKINGJAY_HH
