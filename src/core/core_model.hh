/**
 * @file
 * Interval-style core performance model (the Sniper methodology of §6).
 *
 * Instructions retire at the issue width; stall events add cycles on
 * top and are attributed to CPI-stack components:
 *  - instruction fetch misses stall the frontend serially (minus a
 *    small decoupled-fetch-buffer overlap) — this asymmetry versus data
 *    misses is the effect Garibaldi exploits;
 *  - independent data misses overlap within the ROB shadow (MLP); a
 *    per-workload dependence fraction serializes pointer-chasing loads;
 *  - branch mispredictions flush the pipeline;
 *  - TLB misses charge the translation path.
 */

#ifndef GARIBALDI_CORE_CORE_MODEL_HH
#define GARIBALDI_CORE_CORE_MODEL_HH

#include <memory>

#include "common/rng.hh"
#include "common/stats.hh"
#include "core/branch/tage.hh"
#include "core/cpi_stack.hh"
#include "core/page_table.hh"
#include "core/tlb.hh"
#include "mem/hierarchy.hh"
#include "workloads/microop.hh"

namespace garibaldi
{

/** Pipeline parameters (Table 1 defaults). */
struct CoreParams
{
    unsigned issueWidth = 6;
    Cycle mispredictPenalty = 14;
    /** Fetch latency hidden by the decoupled fetch/decode queue. */
    Cycle fetchHideCycles = 8;
    /** Cycles of independent work the ROB hides under a lone miss. */
    Cycle robSlackCycles = 21;
    /** Fraction of a store miss charged as store-buffer pressure. */
    double storeCostFraction = 0.125;
    /** Probability a load depends on the outstanding miss (no MLP). */
    double dependentLoadFraction = 0.3;
    TlbHierarchy::Params tlb{};
};

/** Per-core retired-instruction statistics. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t ifetchLines = 0; //!< L1I line fetches issued
    CpiStack cpi;

    double
    ipc(Cycle cycles) const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }
};

/** One simulated core. */
class CoreModel
{
  public:
    /**
     * @param core core id
     * @param params pipeline parameters
     * @param hierarchy shared memory hierarchy
     * @param seed deterministic seed for the dependence model
     */
    CoreModel(CoreId core, const CoreParams &params,
              MemoryHierarchy &hierarchy, std::uint64_t seed);

    /** Retire one instruction, advancing the core clock. */
    void step(const MicroOp &op);

    /** Current core clock. */
    Cycle now() const { return cycle; }

    /** Zero the statistics window (end of warmup). */
    void resetStats();

    /** Statistics since the last reset. */
    const CoreStats &stats() const { return stat; }

    /** Cycles elapsed since the last stats reset. */
    Cycle windowCycles() const { return cycle - windowStart; }

    CoreId id() const { return coreId; }
    TlbHierarchy &tlbs() { return tlb; }
    TagePredictor &branchPredictor() { return bp; }

  private:
    void chargeFetch(const MicroOp &op);
    void chargeData(const MicroOp &op);
    void charge(CpiComponent c, Cycle n);
    CpiComponent fetchComponent(HitLevel level) const;
    CpiComponent dataComponent(HitLevel level) const;

    CoreId coreId;
    CoreParams params;
    MemoryHierarchy &mem;
    PageTable pt;
    TlbHierarchy tlb;
    TagePredictor bp;
    Pcg32 rng;

    Cycle cycle = 0;
    Cycle windowStart = 0;
    unsigned subcycle = 0;       //!< retire slots within current cycle
    Addr lastFetchLine = ~Addr{0};
    Cycle missShadowEnd = 0;     //!< MLP window for data misses
    CoreStats stat;
};

} // namespace garibaldi

#endif // GARIBALDI_CORE_CORE_MODEL_HH
