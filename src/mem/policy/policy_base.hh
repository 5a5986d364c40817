/**
 * @file
 * What every replacement policy shares: the kind selector, the
 * predictive policies' tunables, and the plain base class holding the
 * geometry and the default no-op hooks.  The closed set of policies is
 * assembled into ReplacementPolicy (replacement.hh).
 */

#ifndef GARIBALDI_MEM_POLICY_POLICY_BASE_HH
#define GARIBALDI_MEM_POLICY_POLICY_BASE_HH

#include <cstdint>
#include <string>

#include "common/host_prefetch.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace garibaldi
{

/** Replacement policy selector. */
enum class PolicyKind : std::uint8_t
{
    LRU = 0,
    DRRIP,
    Hawkeye,
    Mockingjay,
};

/** Human-readable policy name. */
const char *policyKindName(PolicyKind kind);

/** Parse a policy name ("lru", "drrip", "mockingjay", ...). */
PolicyKind parsePolicyKind(const std::string &name);

/**
 * Sampled-history length of Hawkeye and Mockingjay as a multiple of
 * associativity (paper: 8x).
 */
inline constexpr unsigned kHistoryAssocMult = 8;

/** Tunables shared by the predictive policies. */
struct PolicyParams
{
    /**
     * RRPV / ETR counter width in bits (at most 8).  3 matches
     * Mockingjay's signed ETR range ([-4, 3]) and gives DRRIP an
     * 8-level RRPV.  Only unit tests and the PolicyTrace hashes run with
     * this default: SystemConfig sets 5 bits for the LLC, so every
     * System, golden and bench runs with 5-bit counters.  Pinned by
     * PolicyParamsDefaultsPinned: changing it invalidates every policy
     * trace hash.
     */
    unsigned counterBits = 3;
    /** Sample one of every 2^sampleShift sets for history-based policies. */
    unsigned sampleShift = 3;
    /** Seed for DRRIP's BRRIP insertion draw. */
    std::uint64_t seed = 1;
};

/**
 * Geometry and the hooks most policies leave empty.  A concrete policy
 * defines onHit/victim/onInsert/promote and may hide onAccess/onEvict
 * and prefetchSet;
 * the hook contract is documented on ReplacementPolicy.
 */
class PolicyBase
{
  public:
    void onAccess(std::uint32_t, const MemAccess &, bool) {}
    void onEvict(std::uint32_t, std::uint32_t) {}
    /** Host-prefetch the per-set rows the hooks will touch (no-op). */
    void prefetchSet(std::uint32_t) const {}

  protected:
    PolicyBase(std::uint32_t num_sets, std::uint32_t assoc_)
        : numSets(num_sets), assoc(assoc_)
    {}

    std::uint32_t numSets;
    std::uint32_t assoc;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_POLICY_BASE_HH
