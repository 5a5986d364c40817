/**
 * @file
 * Decoupled D_PPN table (§5.3, Fig. 10(a)): a tagless, direct-indexed
 * table of data page-frame numbers shared by many DL_PA fields.  Each
 * field stores only a small index into this table plus the in-page line
 * offset, cutting the pair table's per-field storage.
 */

#ifndef GARIBALDI_GARIBALDI_DPPN_TABLE_HH
#define GARIBALDI_GARIBALDI_DPPN_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace garibaldi
{

/** Tagless shared page-frame store with sctr-gated replacement. */
class DppnTable
{
  public:
    /**
     * @param entries table entries (power of two; Table 2: 8192)
     */
    explicit DppnTable(std::uint32_t entries);

    /**
     * Ensure @p dppn is present at its slot.
     * A matching slot is reinforced; a conflicting slot is weakened and
     * replaced only once its sctr drops below the threshold (the same
     * sctr discipline as DL_PA fields, without an old bit).
     * @return the slot index when @p dppn now occupies it
     */
    std::optional<std::uint32_t> allocate(Addr dppn);

    /** Frame stored at @p index, if any. */
    std::optional<Addr> lookup(std::uint32_t index) const;

    /** Slot that @p dppn maps to. */
    std::uint32_t indexOf(Addr dppn) const;

    std::uint32_t entries() const
    {
        return static_cast<std::uint32_t>(table.size());
    }

    StatSet stats() const;

  private:
    struct Entry
    {
        Addr dppn = 0;
        unsigned sctr = 0;
        bool valid = false;
    };

    std::vector<Entry> table;
    std::uint64_t nHits = 0;
    std::uint64_t nReplacements = 0;
    std::uint64_t nRejected = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_GARIBALDI_DPPN_TABLE_HH
