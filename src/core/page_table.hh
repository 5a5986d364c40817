/**
 * @file
 * Deterministic per-core page table.  Each core owns a disjoint 4 GB
 * physical zone of the 44-bit space; frames are allocated on first
 * touch and scattered inside the zone by a keyed Feistel permutation so
 * consecutive virtual pages do not map to consecutive LLC set groups.
 */

#ifndef GARIBALDI_CORE_PAGE_TABLE_HH
#define GARIBALDI_CORE_PAGE_TABLE_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/flat_tables.hh"

namespace garibaldi
{

/** On-demand virtual-to-physical mapping for one core. */
class PageTable
{
  public:
    /**
     * @param core owning core (selects the physical zone)
     * @param scatter_key permutation key (derived from the mix seed)
     */
    PageTable(CoreId core, std::uint64_t scatter_key);

    /** Translate a virtual address, allocating its frame if needed. */
    Addr translate(Addr vaddr);

    /** Frame number backing @p vpn (allocates on demand). */
    Addr frameOf(Addr vpn);

  private:
    /** Frames per 4 GB core zone. */
    static constexpr std::uint64_t kZoneFrames =
        (std::uint64_t{1} << 32) / kPageBytes;

    Addr zoneBase;
    std::uint64_t key;
    std::uint64_t nextIndex = 0;
    /** vpn → ppn; a zone never starts at frame 0, so 0 means unmapped. */
    FlatLineMap<Addr> vpnToPpn;
};

} // namespace garibaldi

#endif // GARIBALDI_CORE_PAGE_TABLE_HH
