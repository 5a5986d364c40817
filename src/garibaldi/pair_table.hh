/**
 * @file
 * Main pair table (§5, Fig. 8-10): a direct-mapped table keyed by
 * instruction-line physical address.  Each entry carries a saturating
 * miss_cost driven by the hit/miss outcomes of paired data accesses, a
 * color stamp for lazy aging against the synchronized coloring timer,
 * and k compressed DL_PA fields (D_PPN-table index + in-page line
 * offset, old bit, sctr) used for pairwise prefetch.
 */

#ifndef GARIBALDI_GARIBALDI_PAIR_TABLE_HH
#define GARIBALDI_GARIBALDI_PAIR_TABLE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/zeroed_array.hh"
#include "garibaldi/dppn_table.hh"
#include "garibaldi/params.hh"

namespace garibaldi
{

/** Outcome of a QBS query against the pair table. */
struct PairQueryResult
{
    bool found = false;      //!< an entry for this IL_PA exists
    unsigned agedCost = 0;   //!< miss_cost after color aging
};

/** The instruction-data pair table. */
class PairTable
{
  public:
    /** Most DL_PA fields per entry (Fig. 14(a) sweeps k up to 8);
     *  each entry holds exactly k. */
    static constexpr unsigned kMaxFields = 8;

    PairTable(const GaribaldiParams &params, DppnTable &dppn);

    /**
     * Allocate & Update (Fig. 5(a)): a data access at the LLC was
     * attributed to instruction line @p il_pa.
     *
     * @param il_pa physical address of the triggering instruction line
     * @param dl_pa physical address of the accessed data line
     * @param data_hit LLC outcome of the data access (hot/cold signal)
     * @param color current coloring-timer value
     * @param threshold current protection threshold (replacement gate)
     */
    void updateOnDataAccess(Addr il_pa, Addr dl_pa, bool data_hit,
                            unsigned color, unsigned threshold);

    /**
     * An instruction miss occurred for @p il_pa: arm the old bits of
     * its DL_PA fields so the first k following data lines re-register
     * (Fig. 10(b)).
     */
    void onInstrMiss(Addr il_pa);

    /**
     * Query (Fig. 5(b)): read the aged miss cost without mutating the
     * entry (§5.2: the entry's color and cost are not updated by the
     * query).
     */
    PairQueryResult query(Addr il_pa, unsigned color) const;

    /**
     * Collect prefetch candidates for an instruction miss: the data
     * line addresses reconstructed from this entry's DL_PA fields.
     */
    void collectPrefetchCandidates(Addr il_pa,
                                   std::vector<Addr> &out) const;

    StatSet stats() const;

    /** Debug/test view of the entry an IL_PA maps to. */
    struct DebugEntry
    {
        bool valid = false;
        bool tagMatch = false;
        unsigned missCost = 0;
        unsigned color = 0;
        struct Field
        {
            bool valid = false;
            bool oldBit = false;
            unsigned sctr = 0;
            Addr dlpa = 0; //!< reconstructed, 0 when unresolvable
        };
        std::array<Field, kMaxFields> fields{};
    };

    DebugEntry debugEntry(Addr il_pa) const;

    /** Distance from @p from to @p to on the color wheel. */
    unsigned
    colorDistance(unsigned from, unsigned to) const
    {
        return (to - from) & (numColors - 1);
    }

  private:
    /** 8 bytes; all-zero is an unused field with its old bit set. */
    struct DlField
    {
        std::uint32_t dppnIdx;
        std::uint8_t dppo; //!< line index within the page (6 bits)
        std::uint8_t sctr;
        bool disarmed;     //!< old bit clear: may not be (re)recorded
        bool valid;
    };
    static_assert(sizeof(DlField) == 8, "DlField must stay compact");

    /** 16 bytes; all-zero is an invalid entry. */
    struct Entry
    {
        Addr ilTag; //!< instruction line number (IL_PA >> 6)
        std::uint8_t missCost;
        std::uint8_t color;
        bool valid;
    };
    static_assert(sizeof(Entry) == 16, "Entry must stay compact");

    static const GaribaldiParams &validated(const GaribaldiParams &p);
    std::size_t indexOf(Addr il_pa) const;
    /** The k DL_PA fields of entry @p i. */
    DlField *fieldsOf(std::size_t i) const { return &fields[i * params.k]; }
    unsigned agedCostOf(const Entry &e, unsigned color) const;
    void initEntry(Entry &e, DlField *f, Addr il_tag, unsigned color);
    void armFields(DlField *f);
    void refreshColor(Entry &e, DlField *f, unsigned color);
    void updateFields(DlField *f, Addr dl_pa);
    bool fieldMatches(const DlField &f, Addr dppn, unsigned dppo) const;

    GaribaldiParams params;
    DppnTable &dppn;
    unsigned numColors;
    /** Entry i's header, and its k DL_PA fields at fields[i * k]. */
    ZeroedArray<Entry> table;
    ZeroedArray<DlField> fields;

    std::uint64_t nUpdates = 0;
    std::uint64_t nAllocs = 0;
    std::uint64_t nCollisionsPreserved = 0;
    std::uint64_t nCollisionsReplaced = 0;
    mutable std::uint64_t nQueries = 0;
    std::uint64_t nFieldRecords = 0;
    std::uint64_t nFieldBypasses = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_GARIBALDI_PAIR_TABLE_HH
