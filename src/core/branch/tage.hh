/**
 * @file
 * TAGE-lite conditional branch predictor (Seznec & Michaud, the Table 1
 * predictor) plus a last-target BTB for indirect branches standing in
 * for ITTAGE.  Four tagged tables with geometric history lengths back a
 * bimodal base predictor; allocation-on-mispredict with useful bits.
 * Entries are packed (a 4-byte tagged entry, a 1-byte base counter) so
 * the eight predictors of an 8-core run stay small in the host cache.
 */

#ifndef GARIBALDI_CORE_BRANCH_TAGE_HH
#define GARIBALDI_CORE_BRANCH_TAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/zeroed_array.hh"

namespace garibaldi
{

/** TAGE-lite: bimodal base + 4 tagged geometric-history components. */
class TagePredictor
{
  public:
    TagePredictor();

    /**
     * Predict the direction of the conditional branch at @p pc, then
     * train with the resolved outcome @p taken and update the global
     * history, from one provider lookup.
     * @return the prediction made before training.
     */
    bool resolve(Addr pc, bool taken);

    /** Predict the target of an indirect branch at @p pc. */
    Addr predictIndirect(Addr pc);

    /** Train the indirect target buffer; updates global history. */
    void updateIndirect(Addr pc, Addr target);

    StatSet stats() const;

    std::uint64_t lookups() const { return nLookups; }

  private:
    static constexpr unsigned kNumTables = 4;
    static constexpr unsigned kTableBits = 10;
    static constexpr std::size_t kTableSize =
        std::size_t{1} << kTableBits;
    static constexpr unsigned kBaseBits = 13;
    static constexpr std::size_t kBaseSize = std::size_t{1} << kBaseBits;
    static constexpr std::array<unsigned, kNumTables> kHistLen{8, 16, 32,
                                                               64};
    static constexpr std::size_t kBtbSize = 4096;

    /** 3-bit direction counter: taken when above kCtrWeakNotTaken. */
    static constexpr std::uint8_t kCtrMax = 7;
    static constexpr std::uint8_t kCtrWeakNotTaken = 3;
    /** 2-bit useful counter. */
    static constexpr std::uint8_t kUsefulMax = 3;
    /** 2-bit base counter: taken when above kBaseWeakNotTaken. */
    static constexpr std::uint8_t kBaseMax = 3;
    static constexpr std::uint8_t kBaseWeakNotTaken = 1;

    /**
     * One tagged entry.  Every real tag has bit 8 set (lookup()), so
     * tag 0 marks an invalid entry and all-zero bytes are the initial
     * table.
     */
    struct TaggedEntry
    {
        std::uint16_t tag;
        std::uint8_t ctr;
        std::uint8_t useful;
    };
    static_assert(sizeof(TaggedEntry) == 4, "TaggedEntry must stay packed");

    /** Indices and tags of one branch in every table, and its provider
     *  (the longest-history hit, or -1 for the base table). */
    struct Lookup
    {
        std::size_t idx[kNumTables];
        std::uint16_t tag[kNumTables];
        int provider;
    };

    std::size_t baseIndex(Addr pc) const;
    std::uint64_t foldedHistory(unsigned bits) const;
    Lookup lookup(Addr pc) const;
    bool predicted(const Lookup &l, Addr pc) const;
    /** Train on an already computed lookup.  @return the prediction
     *  it trained against. */
    bool train(const Lookup &l, Addr pc, bool taken);

    std::vector<std::uint8_t> base;
    std::array<ZeroedArray<TaggedEntry>, kNumTables> tables;
    std::uint64_t history = 0;

    /** pc 0 marks an empty entry (updateIndirect never writes it). */
    struct BtbEntry
    {
        Addr pc = 0;
        Addr target = 0;
    };
    static_assert(sizeof(BtbEntry) == 16, "BtbEntry must stay compact");
    ZeroedArray<BtbEntry> btb; //!< all-zero = empty

    std::uint64_t nLookups = 0;
    std::uint64_t nCorrect = 0;
    std::uint64_t nAllocs = 0;
    std::uint64_t nIndirect = 0;
    std::uint64_t nIndirectCorrect = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_CORE_BRANCH_TAGE_HH
