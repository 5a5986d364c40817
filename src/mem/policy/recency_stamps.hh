/**
 * @file
 * Recency order within each set row of a cache, one byte per way.
 * Replacement only ever compares the stamps of ways in one set, so a
 * stamp need not be a global tick: a touch writes the set's newest
 * stamp + 1, and before that would pass 255 the row's live stamps are
 * re-ranked 1..k in their order.  0 means never touched (or cleared).
 * The order is the one global ticks would give, at one byte per frame
 * (plus one per set) instead of eight; rows start zeroed and are first
 * written by use.
 */

#ifndef GARIBALDI_MEM_POLICY_RECENCY_STAMPS_HH
#define GARIBALDI_MEM_POLICY_RECENCY_STAMPS_HH

#include <cstddef>
#include <cstdint>

#include "common/host_prefetch.hh"
#include "common/zeroed_array.hh"

namespace garibaldi
{

/** Per-set, per-way recency stamps; an empty instance has no rows. */
class RecencyStamps
{
  public:
    /** Widest row: a re-rank leaves at least 127 touches of headroom. */
    static constexpr std::uint32_t kMaxAssoc = 128;

    RecencyStamps() = default;
    /** Rows of @p assoc ways (fatal above kMaxAssoc). */
    RecencyStamps(std::uint32_t num_sets, std::uint32_t assoc);

    /** True when the rows exist (not default-constructed). */
    explicit operator bool() const { return assoc != 0; }

    /** Make @p way the newest of its set. */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        std::uint8_t *r = row(set);
        std::uint8_t &top = r[-1];
        if (r[way] == top && top != 0)
            return; // already the newest: the order stands
        if (top == 0xff)
            top = rerank(r);
        r[way] = ++top;
    }

    /** Mark @p way never touched: it becomes the oldest of its set. */
    void clear(std::uint32_t set, std::uint32_t way) { row(set)[way] = 0; }

    /** Stamp of (set, way); only its order within the set means anything. */
    std::uint8_t
    stamp(std::uint32_t set, std::uint32_t way) const
    {
        return row(set)[way];
    }

    /** Oldest way in [@p lo, @p hi) of @p set; the lowest way on ties. */
    std::uint32_t
    oldest(std::uint32_t set, std::uint32_t lo, std::uint32_t hi) const
    {
        const std::uint8_t *r = row(set);
        std::uint32_t best = lo;
        unsigned best_stamp = r[lo];
        for (std::uint32_t w = lo + 1; w < hi; ++w) {
            if (r[w] < best_stamp) { // an index loop compiles branch-free
                best_stamp = r[w];
                best = w;
            }
        }
        return best;
    }

    /** Host-prefetch @p set's row. */
    void
    prefetch(std::uint32_t set) const
    {
        prefetchHostLines(row(set) - 1, assoc + 1);
    }

  private:
    /**
     * @p set's stamps.  Each set's row is preceded by the newest stamp
     * handed out in it (row[-1]): at least every stamp in the row, so
     * a touch need not scan it.  A re-rank resets it.
     */
    std::uint8_t *
    row(std::uint32_t set)
    {
        return &cells[std::size_t{set} * (assoc + 1) + 1];
    }

    const std::uint8_t *
    row(std::uint32_t set) const
    {
        return &cells[std::size_t{set} * (assoc + 1) + 1];
    }

    /** Re-rank @p r's nonzero stamps 1..k in order; @return k. */
    std::uint8_t rerank(std::uint8_t *r) const;

    ZeroedArray<std::uint8_t> cells; //!< per set: newest, then a row
    std::uint32_t assoc = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_RECENCY_STAMPS_HH
