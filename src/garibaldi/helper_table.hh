/**
 * @file
 * Per-core helper table (§5.1, Fig. 8): an ITLB-like set-associative
 * cache inside the LLC controller that records the PC-page to
 * instruction-frame (VPN -> PPN) mapping during instruction accesses,
 * so later data accesses can reconstruct the full IL_PA of their
 * triggering instruction from the PC alone.
 */

#ifndef GARIBALDI_GARIBALDI_HELPER_TABLE_HH
#define GARIBALDI_GARIBALDI_HELPER_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace garibaldi
{

/** VPN -> PPN helper cache, decoupled from the core's ITLB. */
class HelperTable
{
  public:
    /**
     * @param entries total entries (Table 2: 128)
     * @param assoc associativity (Table 2: 4)
     */
    HelperTable(std::uint32_t entries, std::uint32_t assoc);

    /**
     * Record/refresh the mapping observed during an instruction access
     * at the LLC (PC page -> instruction-line frame).
     */
    void record(Addr pc_vpn, Addr instr_ppn);

    /**
     * Deduce the instruction frame for a data access's PC page.
     * Reinforces the entry's counter on hit.
     */
    std::optional<Addr> lookup(Addr pc_vpn);

    /**
     * Reconstruct the full instruction-line physical address from a
     * helper PPN and the PC's in-page offset (Fig. 8 worked example).
     */
    static Addr
    deduceIlpa(Addr instr_ppn, Addr pc)
    {
        return (instr_ppn << kPageShift) | (pageOffset(pc) &
                                            ~(kLineBytes - 1));
    }

    StatSet stats() const;

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }

  private:
    struct Entry
    {
        Addr vpn = 0;
        Addr ppn = 0;
        unsigned sctr = 0;
        bool valid = false;
    };

    std::uint32_t setOf(Addr vpn) const;
    Entry *findEntry(Addr vpn);

    std::uint32_t numSets;
    std::uint32_t assoc;
    std::vector<Entry> entriesArr;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nRecords = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_GARIBALDI_HELPER_TABLE_HH
