/**
 * @file
 * Least-recently-used replacement (the paper's baseline policy).
 */

#ifndef GARIBALDI_MEM_POLICY_LRU_HH
#define GARIBALDI_MEM_POLICY_LRU_HH

#include "mem/policy/policy_base.hh"
#include "mem/policy/recency_stamps.hh"

namespace garibaldi
{

/** Exact LRU via per-set recency stamps. */
class LruPolicy final : public PolicyBase
{
  public:
    LruPolicy(std::uint32_t num_sets, std::uint32_t assoc);

    void onHit(std::uint32_t set, std::uint32_t way, const MemAccess &acc);
    std::uint32_t victim(std::uint32_t set, const MemAccess &acc);
    void onInsert(std::uint32_t set, std::uint32_t way, const MemAccess &acc);
    void promote(std::uint32_t set, std::uint32_t way);
    void onEvict(std::uint32_t set, std::uint32_t way);

    void prefetchSet(std::uint32_t set) const { stamps.prefetch(set); }

  private:
    RecencyStamps stamps; //!< 0 = never touched (or evicted)
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_LRU_HH
