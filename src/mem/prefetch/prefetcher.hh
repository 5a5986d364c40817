/**
 * @file
 * Hardware prefetcher interface.  Prefetchers observe demand accesses at
 * their attach point and propose line addresses to bring in.
 */

#ifndef GARIBALDI_MEM_PREFETCH_PREFETCHER_HH
#define GARIBALDI_MEM_PREFETCH_PREFETCHER_HH

#include <vector>

#include "common/types.hh"
#include "mem/request.hh"

namespace garibaldi
{

/** Abstract prefetch engine. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe a demand access (after outcome) and append prefetch
     * candidates (line addresses) to @p out.
     */
    virtual void observe(const MemAccess &acc, bool hit,
                         std::vector<Addr> &out) = 0;

    /** Prefetches proposed so far. */
    std::uint64_t issued() const { return nIssued; }

  protected:
    std::uint64_t nIssued = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_PREFETCH_PREFETCHER_HH
