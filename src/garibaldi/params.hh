/**
 * @file
 * Garibaldi configuration: Table 2 constants and the tunables a figure
 * or test sets.
 */

#ifndef GARIBALDI_GARIBALDI_PARAMS_HH
#define GARIBALDI_GARIBALDI_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace garibaldi
{

/** How the protection threshold is managed (Fig. 14(b) modes). */
enum class ThresholdMode : std::uint8_t
{
    Dynamic = 0,  //!< PMU-driven adjustment every color period
    Fixed,        //!< init + fixedDelta, never changes
    AllProtected, //!< threshold 0: every tracked instruction protected
};

/** Helper table entries per core (Table 2: 128, 4-way). */
inline constexpr std::uint32_t kHelperEntries = 128;
inline constexpr std::uint32_t kHelperAssoc = 4;
/** miss_cost counter width (Table 2: 6 bits). */
inline constexpr unsigned kMissCostBits = 6;
inline constexpr unsigned kMissCostMax = (1u << kMissCostBits) - 1;
/** Initial protection threshold (Fig. 14(b): 32). */
inline constexpr unsigned kThresholdInit = 32;
static_assert(kThresholdInit <= kMissCostMax);
/** Margin on the P(D_miss|I_miss) vs miss-rate comparison. */
inline constexpr double kThresholdMargin = 0.02;
/** DL_PA / D_PPN saturating counter width (Table 2: 3 bits). */
inline constexpr unsigned kSctrBits = 3;
inline constexpr unsigned kSctrMax = (1u << kSctrBits) - 1;
/** Replace a DL_PA field when its sctr falls below this (§5.3: 4). */
inline constexpr unsigned kSctrReplaceThreshold = 4;
/** Most recent instruction-miss PCs tracked per thread (§5.2: 10). */
inline constexpr unsigned kRecentIMissPcs = 10;
/** QBS integration (§6): query cost of one protection lookup. */
inline constexpr Cycle kQbsLookupCost = 1;

/** Tunables of the Garibaldi module. */
struct GaribaldiParams
{
    /** Main pair table entries (Table 2: 2^14; Fig. 14(c) sweeps it). */
    std::uint32_t pairTableEntries = 1u << 14;
    /** DL_PA fields per pair entry (Table 2: k=1; Fig. 14(a)). */
    unsigned k = 1;
    /** Decoupled D_PPN table entries (Table 2: 2^13, tagless). */
    std::uint32_t dppnEntries = 1u << 13;

    /** Initial miss_cost of a fresh pair entry (mid-scale). */
    unsigned missCostInit = 32;
    /** Coloring timer width l (§5.2: 3 bits => 8 colors). */
    unsigned colorBits = 3;
    /** LLC accesses per color period N (paper: 100K; scaled to the
     *  shorter measurement windows used here). */
    std::uint64_t colorPeriod = 8192;

    ThresholdMode thresholdMode = ThresholdMode::Dynamic;
    /** Delta applied in Fixed mode (Fig. 14(b): -16 / 0 / +16). */
    int fixedThresholdDelta = 0;

    /** QBS integration (§6): per-eviction attempt cap. */
    unsigned qbsMaxAttempts = 2;

    /** Master switch for the pairwise data prefetch (k=0 also off). */
    bool prefetchEnabled = true;
    /** Master switch for selective instruction protection. */
    bool protectionEnabled = true;
};

} // namespace garibaldi

#endif // GARIBALDI_GARIBALDI_PARAMS_HH
