/**
 * @file
 * Dynamic threshold management via coloring (§5.2, Fig. 9).
 *
 * An l-bit timer advances one color every N LLC accesses.  During each
 * color a PMU measures P(D_miss | I_miss): instruction misses push
 * their (64 B-aligned) PCs into a small per-thread recent list; data
 * accesses whose PC matches a listed entry count toward the conditional
 * miss rate.  At each color boundary the protection threshold moves
 * down (protect more) when the conditional rate undercuts the overall
 * LLC miss rate, and up (protect less) when it exceeds it.
 */

#ifndef GARIBALDI_GARIBALDI_THRESHOLD_UNIT_HH
#define GARIBALDI_GARIBALDI_THRESHOLD_UNIT_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "garibaldi/params.hh"

namespace garibaldi
{

/** Coloring timer + PMU + threshold state. */
class ThresholdUnit
{
  public:
    ThresholdUnit(const GaribaldiParams &params, std::uint32_t num_cores);

    /** Every demand LLC access; drives the period counter. */
    void onLlcAccess(bool hit);

    /** A demand instruction miss at the LLC (records the PC). */
    void onInstrMiss(CoreId core, Addr pc);

    /** A demand data access at the LLC (PMU matching). */
    void onDataAccess(CoreId core, Addr pc, bool hit);

    /** Current protection threshold per the configured mode. */
    unsigned threshold() const;

    /** Current color. */
    unsigned color() const { return currentColor; }

    /** Color periods completed. */
    std::uint64_t rotations() const { return nRotations; }

    /** PMU conditional miss rate of the last completed color. */
    double lastConditionalMissRate() const { return lastPdMiss; }

    /** Overall LLC miss rate of the last completed color. */
    double lastLlcMissRate() const { return lastMissRate; }

    StatSet stats() const;

  private:
    void rotate();

    GaribaldiParams params;
    unsigned numColors;
    unsigned currentColor = 0;
    unsigned dynThreshold;

    // Period counters.
    std::uint64_t periodAccesses = 0;
    std::uint64_t periodMisses = 0;
    std::uint64_t matchedTotal = 0;
    std::uint64_t matchedMisses = 0;

    // Per-core recent instruction-miss PC rings.
    struct PcRing
    {
        std::vector<Addr> pcs;
        std::size_t pos = 0;
    };
    std::vector<PcRing> rings;

    double lastPdMiss = 0.0;
    double lastMissRate = 0.0;
    std::uint64_t nRotations = 0;
    std::uint64_t nThresholdUps = 0;
    std::uint64_t nThresholdDowns = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_GARIBALDI_THRESHOLD_UNIT_HH
