/**
 * @file
 * Replacement policy: the closed set of policies held by value, and
 * its factory.
 *
 * The interface is intentionally richer than gem5's: PC-indexed
 * predictive policies (Hawkeye, Mockingjay) observe every access
 * to train, and the QBS-style promote() hook lets Garibaldi reset a
 * protected victim's eviction priority without the policy knowing why
 * (§4.2 of the paper).
 *
 * Each hook is one std::visit over the variant.  For a single variant
 * of at most 11 alternatives libstdc++ lowers that to a switch on the
 * index, so the cache's per-access hooks inline into the concrete
 * policy's code with no indirect call.
 */

#ifndef GARIBALDI_MEM_POLICY_REPLACEMENT_HH
#define GARIBALDI_MEM_POLICY_REPLACEMENT_HH

#include <utility>
#include <variant>

#include "mem/policy/hawkeye.hh"
#include "mem/policy/lru.hh"
#include "mem/policy/mockingjay.hh"
#include "mem/policy/policy_base.hh"
#include "mem/policy/rrip.hh"

namespace garibaldi
{

/**
 * Per-cache replacement policy.  The cache calls:
 *  - onAccess() for every demand lookup (training hook, before outcome),
 *  - onHit() when the lookup hits,
 *  - victim() when an insertion needs a frame and no way is invalid,
 *  - onInsert() after the new line is placed,
 *  - promote() to reset a line's eviction priority to the lowest
 *    (the QBS protection action),
 *  - onEvict() when a line leaves the cache,
 *  - prefetchSet() ahead of a probe of the set: a host-cache hint that
 *    changes no policy state.
 */
class ReplacementPolicy
{
  public:
    /** One alternative per PolicyKind. */
    using Variant = std::variant<LruPolicy, DrripPolicy, HawkeyePolicy,
                                 MockingjayPolicy>;

    /** Build alternative @p P in place from @p args. */
    template <typename P, typename... Args>
    explicit ReplacementPolicy(std::in_place_type_t<P> type,
                               Args &&...args)
        : impl(type, std::forward<Args>(args)...)
    {}

    void
    onAccess(std::uint32_t set, const MemAccess &acc, bool hit)
    {
        std::visit([&](auto &p) { p.onAccess(set, acc, hit); }, impl);
    }

    void
    onHit(std::uint32_t set, std::uint32_t way, const MemAccess &acc)
    {
        std::visit([&](auto &p) { p.onHit(set, way, acc); }, impl);
    }

    /** Choose the eviction victim way in @p set (all ways valid). */
    std::uint32_t
    victim(std::uint32_t set, const MemAccess &acc)
    {
        return std::visit([&](auto &p) { return p.victim(set, acc); },
                          impl);
    }

    void
    onInsert(std::uint32_t set, std::uint32_t way, const MemAccess &acc)
    {
        std::visit([&](auto &p) { p.onInsert(set, way, acc); }, impl);
    }

    /** Reset (set, way) to the lowest eviction priority (QBS action). */
    void
    promote(std::uint32_t set, std::uint32_t way)
    {
        std::visit([&](auto &p) { p.promote(set, way); }, impl);
    }

    void
    onEvict(std::uint32_t set, std::uint32_t way)
    {
        std::visit([&](auto &p) { p.onEvict(set, way); }, impl);
    }

    void
    prefetchSet(std::uint32_t set) const
    {
        std::visit([&](const auto &p) { p.prefetchSet(set); }, impl);
    }

  private:
    Variant impl;
};

/** Instantiate a policy for the given geometry. */
ReplacementPolicy makePolicy(PolicyKind kind, std::uint32_t num_sets,
                             std::uint32_t assoc,
                             const PolicyParams &params = {});

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_REPLACEMENT_HH
