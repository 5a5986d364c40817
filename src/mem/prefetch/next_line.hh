/**
 * @file
 * Next-line prefetcher (Table 1: the L1D baseline prefetcher).
 */

#ifndef GARIBALDI_MEM_PREFETCH_NEXT_LINE_HH
#define GARIBALDI_MEM_PREFETCH_NEXT_LINE_HH

#include "mem/prefetch/prefetcher.hh"

namespace garibaldi
{

/** Prefetch the next @p degree sequential lines on a demand miss. */
class NextLinePrefetcher : public Prefetcher
{
  public:
    explicit NextLinePrefetcher(unsigned degree = 1);

    void observe(const MemAccess &acc, bool hit,
                 std::vector<Addr> &out) override;

  private:
    unsigned degree;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_PREFETCH_NEXT_LINE_HH
