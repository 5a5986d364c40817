/**
 * @file
 * Memory access descriptors exchanged between the core model, the cache
 * hierarchy and the Garibaldi module.
 */

#ifndef GARIBALDI_MEM_REQUEST_HH
#define GARIBALDI_MEM_REQUEST_HH

#include "common/types.hh"

namespace garibaldi
{

/** Deepest level that serviced an access. */
enum class HitLevel : std::uint8_t { L1 = 0, L2, LLC, Mem, NumLevels };

/** Human-readable name of a HitLevel. */
const char *hitLevelName(HitLevel level);

/**
 * One memory access as seen by the hierarchy.
 *
 * Every request carries the (PC, physical address) pair the paper
 * assumes (§5.1): the PC is the *virtual* address of the triggering
 * instruction and doubles as the signature for PC-indexed replacement
 * policies; @c paddr is the physical address the caches are indexed by.
 */
struct MemAccess
{
    CoreId core = 0;       //!< requesting core
    Addr pc = 0;           //!< virtual PC of the triggering instruction
    Addr paddr = 0;        //!< physical byte address accessed
    bool isInstr = false;  //!< instruction fetch (from L1I) vs data
    bool isWrite = false;  //!< store (data only)
    bool isPrefetch = false; //!< generated by a prefetcher

    /** Physical address of the accessed cache line. */
    Addr lineAddr() const { return lineAlign(paddr); }
};

/** Result of a hierarchy access, consumed by the interval core model. */
struct AccessOutcome
{
    Cycle latency = 0;     //!< total load-to-use latency in cycles
    HitLevel level = HitLevel::L1; //!< level that serviced the access
    bool llcAccessed = false; //!< the request reached the LLC
    bool llcHit = false;   //!< ... and hit there
};

inline const char *
hitLevelName(HitLevel level)
{
    switch (level) {
      case HitLevel::L1:
        return "L1";
      case HitLevel::L2:
        return "L2";
      case HitLevel::LLC:
        return "LLC";
      case HitLevel::Mem:
        return "Mem";
      default:
        return "?";
    }
}

} // namespace garibaldi

#endif // GARIBALDI_MEM_REQUEST_HH
