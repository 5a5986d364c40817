/**
 * @file
 * GHB-style PC-localized delta prefetcher (Nesbit & Smith, HPCA'04 —
 * the L2 prefetcher of Table 1).  Per-PC entries track the last address
 * and delta; a confirmed recurring delta triggers prefetch of the next
 * `degree` strided lines.
 */

#ifndef GARIBALDI_MEM_PREFETCH_GHB_HH
#define GARIBALDI_MEM_PREFETCH_GHB_HH

#include <vector>

#include "common/sat_counter.hh"
#include "mem/prefetch/prefetcher.hh"

namespace garibaldi
{

/** PC-localized stride/delta prefetcher. */
class GhbPrefetcher : public Prefetcher
{
  public:
    /**
     * @param table_entries size of the PC index table (power of two)
     * @param degree prefetch depth once a delta is confirmed
     */
    GhbPrefetcher(std::size_t table_entries = 256, unsigned degree = 4);

    void observe(const MemAccess &acc, bool hit,
                 std::vector<Addr> &out) override;

  private:
    struct Entry
    {
        Addr pcTag = 0;
        Addr lastLine = 0;
        std::int64_t lastDelta = 0;
        SatCounter conf{2, 0};
        bool valid = false;
    };

    std::size_t indexOf(Addr pc) const;

    std::vector<Entry> table;
    unsigned degree;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_PREFETCH_GHB_HH
