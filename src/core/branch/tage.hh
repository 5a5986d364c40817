/**
 * @file
 * TAGE-lite conditional branch predictor (Seznec & Michaud, the Table 1
 * predictor) plus a last-target BTB for indirect branches standing in
 * for ITTAGE.  Four tagged tables with geometric history lengths back a
 * bimodal base predictor; allocation-on-mispredict with useful bits.
 */

#ifndef GARIBALDI_CORE_BRANCH_TAGE_HH
#define GARIBALDI_CORE_BRANCH_TAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/sat_counter.hh"
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

    /** Predict the direction of the conditional branch at @p pc. */
    bool predict(Addr pc);

    /** Train with the resolved outcome; updates global history. */
    void update(Addr pc, bool taken);

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

    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        SatCounter ctr{3, 3}; //!< 3-bit, weakly not-taken start
        SatCounter useful{2, 0};
        bool valid = false;
    };

    std::size_t baseIndex(Addr pc) const;
    std::size_t taggedIndex(Addr pc, unsigned table) const;
    std::uint16_t taggedTag(Addr pc, unsigned table) const;
    std::uint64_t foldedHistory(unsigned bits) const;

    /** Provider lookup shared by predict/update. */
    int findProvider(Addr pc, std::size_t idx[kNumTables],
                     std::uint16_t tag[kNumTables]) const;

    std::vector<SatCounter> base;
    std::array<std::vector<TaggedEntry>, kNumTables> tables;
    std::uint64_t history = 0;

    struct BtbEntry
    {
        Addr pc = 0;
        Addr target = 0;
        bool valid = false;
    };
    ZeroedArray<BtbEntry> btb; //!< all-zero = invalid

    std::uint64_t nLookups = 0;
    std::uint64_t nCorrect = 0;
    std::uint64_t nAllocs = 0;
    std::uint64_t nIndirect = 0;
    std::uint64_t nIndirectCorrect = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_CORE_BRANCH_TAGE_HH
