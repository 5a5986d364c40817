/**
 * @file
 * Two-level TLB model (Table 1: 64-entry ITLB, 48-entry DTLB, shared
 * 3072-entry STLB).  Misses in the first level probe the STLB; STLB
 * misses charge a fixed page-walk cost.
 */

#ifndef GARIBALDI_CORE_TLB_HH
#define GARIBALDI_CORE_TLB_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/zeroed_array.hh"
#include "mem/policy/recency_stamps.hh"

namespace garibaldi
{

/**
 * Set-associative LRU TLB.  A way's recency stamp doubles as its valid
 * bit: 0 means never filled, so the oldest way of a set is its first
 * invalid way when it has one, else its least recently used.
 */
class Tlb
{
  public:
    /**
     * @param entries total entries
     * @param assoc associativity (entries must divide evenly; at
     *        most RecencyStamps::kMaxAssoc)
     */
    Tlb(std::uint32_t entries, std::uint32_t assoc);

    /** Probe and update LRU; inserts on miss. @return hit. */
    bool access(Addr vpn);

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }

  private:
    std::uint32_t setOf(Addr vpn) const;

    std::uint32_t numSets;
    bool pow2Sets;   //!< setOf() may mask instead of dividing
    std::uint32_t assoc;
    ZeroedArray<Addr> vpns; //!< per set, one row of assoc ways
    RecencyStamps stamps;   //!< 0 = invalid way
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

/** ITLB/DTLB + shared STLB with fixed walk cost. */
class TlbHierarchy
{
  public:
    struct Params
    {
        std::uint32_t itlbEntries = 64;
        std::uint32_t dtlbEntries = 48;
        std::uint32_t stlbEntries = 3072;
        std::uint32_t stlbAssoc = 12;
        Cycle stlbHitCost = 8;   //!< first-level miss, STLB hit
        Cycle walkCost = 120;    //!< full page walk
    };

    explicit TlbHierarchy(const Params &params);

    /** Translate an instruction-side page. @return stall cycles. */
    Cycle accessInstr(Addr vpn);

    /** Translate a data-side page. @return stall cycles. */
    Cycle accessData(Addr vpn);

    StatSet stats() const;

  private:
    Cycle accessThrough(Tlb &first, Addr vpn, std::uint64_t &walks);

    Params params;
    Tlb itlb;
    Tlb dtlb;
    Tlb stlb;
    std::uint64_t iWalks = 0;
    std::uint64_t dWalks = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_CORE_TLB_HH
