/**
 * @file
 * Windowed time-series telemetry: snapshots the simulator's stat
 * surface every N cycles of global simulated time and emits one JSONL
 * record per window (IPC, hit rates, queue delays, DRAM row-buffer
 * behavior, Garibaldi coverage and threshold gauges), turning
 * end-of-run scalars into phase-resolved curves.
 *
 * Window deltas follow the exact windowing discipline Simulator::run
 * applies to the detailed window (sim/metrics.hh windowedStatDelta):
 * counters subtract, rates recompute from the subtracted counters,
 * gauges report their end-of-window reading.  Timestamps are simulated
 * cycles — no wall clock — so the stream is byte-identical across
 * reruns and --jobs values.
 */

#ifndef GARIBALDI_OBS_TELEMETRY_HH
#define GARIBALDI_OBS_TELEMETRY_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/obs_config.hh"

namespace garibaldi
{

/** Accumulates one JSONL record per telemetry window. */
class TelemetrySink
{
  public:
    /** @param cfg validated config with telemetryOn() */
    TelemetrySink(const ObsConfig &cfg, std::uint32_t num_cores);

    /**
     * Arm the sink at the start of the measurement window.
     * @param start global simulated cycle of the window start
     * @param mem hierarchy stat snapshot at @p start
     * @param gari Garibaldi stat snapshot (empty set when disabled)
     * @param instr instructions retired so far in the measurement
     */
    void begin(Cycle start, const StatSet &mem, const StatSet &gari,
               std::uint64_t instr);

    /** Global cycle at which the next window closes. */
    Cycle dueAt() const { return due; }

    /**
     * Close the current window at @p now with the given end-of-window
     * snapshots and schedule the next one.  The window boundary is the
     * actual sampling instant, not the nominal grid point, so records
     * carry their real [start, end) span.
     */
    void sample(Cycle now, const StatSet &mem, const StatSet &gari,
                std::uint64_t instr);

    /** Flush the final partial window (no-op when empty). */
    void finish(Cycle end, const StatSet &mem, const StatSet &gari,
                std::uint64_t instr);

    /** The JSONL document accumulated so far. */
    const std::string &jsonl() const { return out; }

    /** Windows emitted. */
    std::uint64_t windows() const { return nWindows; }

  private:
    void emit(Cycle end, const StatSet &mem, const StatSet &gari,
              std::uint64_t instr);

    Cycle window;
    std::uint32_t cores;
    bool armed = false;
    Cycle winStart = 0;
    Cycle due = 0;
    StatSet memPrev;
    StatSet gariPrev;
    std::uint64_t instrPrev = 0;
    std::string out;
    std::uint64_t nWindows = 0;
    /**
     * Audit books (common/audit.hh): the end of the last emitted
     * window, so the chaining invariant (every window starts exactly
     * where its predecessor ended — re-arming a sink mid-stream breaks
     * the JSONL into disjoint streams) and instruction conservation
     * (retired counts never run backwards) can be checked per emit.
     */
    Cycle auditPrevEnd = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_OBS_TELEMETRY_HH
