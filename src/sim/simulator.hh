/**
 * @file
 * The simulation driver: advances the per-core streams in global time
 * order (min-heap on core clocks, as interleaved LLC contention
 * requires), with a warmup window followed by a detailed window whose
 * statistics are reported (the paper's 20 M + 80 M methodology,
 * scaled).
 */

#ifndef GARIBALDI_SIM_SIMULATOR_HH
#define GARIBALDI_SIM_SIMULATOR_HH

#include <vector>

#include "common/stats.hh"
#include "core/cpi_stack.hh"
#include "sim/system.hh"

namespace garibaldi
{

/** Per-core detailed-window results. */
struct CoreResult
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    double ipc = 0;
    CpiStack cpi;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t ifetchLines = 0;
};

/** Whole-run results over the detailed window. */
struct SimResult
{
    std::vector<CoreResult> cores;
    StatSet mem;       //!< hierarchy stats (detailed window)
    StatSet garibaldi; //!< module stats, empty set when disabled
    StatSet tlb;       //!< aggregated TLB stats
    StatSet obs;       //!< observability stats, empty when obs is off

    /** Sum of per-core IPCs. */
    double ipcSum() const;
    /** Harmonic mean of per-core IPCs (homogeneous-mix metric, §6). */
    double ipcHarmonicMean() const;
    /** Aggregate CPI stack (all cores merged). */
    CpiStack totalCpi() const;
    /** Total instruction-fetch stall cycles (Fig. 13 numerator). */
    Cycle ifetchStallCycles() const;
};

/** Runs a System. */
class Simulator
{
  public:
    explicit Simulator(System &system);

    /**
     * Run @p warmup_per_core instructions of warmup on every core (no
     * stats), then @p detailed_per_core instructions of measurement.
     */
    SimResult run(std::uint64_t warmup_per_core,
                  std::uint64_t detailed_per_core);

  private:
    /**
     * Advance every core by @p instructions_per_core instructions.
     * When @p telemetry is non-null, windows are closed whenever the
     * heap-top clock — a monotone non-decreasing lower bound on global
     * simulated time — crosses the sink's due cycle.
     */
    void runWindow(std::uint64_t instructions_per_core,
                   TelemetrySink *telemetry = nullptr);

    /** Gather the current stat surface and close a telemetry window. */
    void telemetrySample(TelemetrySink &telemetry, Cycle now);

    /** Instructions retired so far across all cores (post-reset). */
    std::uint64_t instructionsRetired() const;

    /** The driven system: one simulator, one worker, one system. */
    System &sys;
};

} // namespace garibaldi

#endif // GARIBALDI_SIM_SIMULATOR_HH
