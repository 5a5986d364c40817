/**
 * @file
 * OPTgen (Jain & Lin, ISCA'16): computes, for a single cache set, what
 * Belady's MIN policy would have done, using an occupancy vector over a
 * sliding window of recent accesses.  Used by Hawkeye to label training
 * samples, and unit-tested against a brute-force Belady simulator.
 */

#ifndef GARIBALDI_MEM_POLICY_OPTGEN_HH
#define GARIBALDI_MEM_POLICY_OPTGEN_HH

#include <cstdint>

namespace garibaldi
{

/**
 * OPT's rule for one set, over the set's occupancy row: window bytes,
 * circular, indexed by access time, each counting the lines OPT keeps
 * across that time.  The caller owns the row (zeroed before the set's
 * first access) and supplies each access's reuse interval, from a
 * SampledHistory of at least window entries.  Reuse intervals as long
 * as the window are treated as cold (misses), exactly as in the
 * Hawkeye paper.
 */
class OptGen
{
  public:
    /**
     * @param cache_assoc ways available to OPT in a set (1..255, so an
     *        occupancy count fits a byte)
     * @param window history window length in accesses (8x assoc typical)
     */
    OptGen(std::uint32_t cache_assoc, std::uint32_t window);

    /** Bytes of a set's occupancy row. */
    std::uint32_t rowBytes() const { return window; }

    /**
     * Record the access at time @p now to a line last accessed
     * @p reuse accesses earlier (0 = never); returns true when OPT
     * would have hit.
     */
    bool access(std::uint8_t *occupancy, std::uint64_t now,
                std::uint64_t reuse) const;

  private:
    std::uint8_t assocLimit;
    std::uint32_t window;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_OPTGEN_HH
