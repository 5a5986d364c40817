/**
 * @file
 * I-SPY-flavored instruction prefetcher (Khan et al., MICRO'20).  The
 * real I-SPY is profile-guided and context-sensitive; this online
 * simplification keeps its essence — conditional prefetch of miss
 * successors keyed by recent miss context — using a Markov-style miss
 * correlation table keyed by the previous two instruction-miss lines.
 */

#ifndef GARIBALDI_MEM_PREFETCH_ISPY_HH
#define GARIBALDI_MEM_PREFETCH_ISPY_HH

#include <array>
#include <vector>

#include "common/zeroed_array.hh"
#include "mem/prefetch/prefetcher.hh"

namespace garibaldi
{

/** Miss-correlation instruction prefetcher. */
class IspyPrefetcher : public Prefetcher
{
  public:
    /**
     * @param table_entries correlation table entries (power of two)
     * @param successors successors stored/prefetched per context
     */
    IspyPrefetcher(std::size_t table_entries = 4096,
                   unsigned successors = 2);

    void observe(const MemAccess &acc, bool hit,
                 std::vector<Addr> &out) override;

  private:
    static constexpr unsigned kMaxSucc = 4;

    /** Per-entry successor payload (touched only on a tag match). */
    struct Succ
    {
        std::array<Addr, kMaxSucc> succ{};
        std::array<std::uint8_t, kMaxSucc> conf{};
    };

    std::size_t indexOf(Addr context) const;
    void record(Addr context, Addr next_miss_line);

    /**
     * SoA layout: the context tags live in their own array (zero =
     * empty; real contexts hashing to zero simply retrain, as before
     * with the valid flag) so the common no-match probe reads one
     * 8-byte tag instead of dragging a 48-byte entry through the host
     * cache.  Successor payloads are only touched on a match.  Both
     * start all-zero.
     */
    ZeroedArray<Addr> tags;
    ZeroedArray<Succ> table;
    std::size_t indexMask;
    unsigned numSucc;
    Addr prevMiss = 0;
    Addr prevPrevMiss = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_PREFETCH_ISPY_HH
