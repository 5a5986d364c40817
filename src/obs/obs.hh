/**
 * @file
 * Observability subsystem facade: owns the Tracer and TelemetrySink a
 * System was configured with, gates them on the measurement window,
 * writes the output artifacts, and exports the obs stat surface
 * (capture counters + latency-leg percentiles + telemetry window
 * count) into SimResult.
 */

#ifndef GARIBALDI_OBS_OBS_HH
#define GARIBALDI_OBS_OBS_HH

#include <memory>
#include <string>

#include "common/stats.hh"
#include "obs/obs_config.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace garibaldi
{

class ArgParser;

/** Tracing + telemetry for one System. */
class ObsSubsystem
{
  public:
    /**
     * @param cfg observability knobs; re-validated here so
     *            programmatically built configs obey the same
     *            invariants the CLI enforces
     * @param num_cores cores of the owning System
     */
    ObsSubsystem(const ObsConfig &cfg, std::uint32_t num_cores);

    /** The transaction tracer, or null when tracing is off. */
    Tracer *tracer() { return tracer_.get(); }
    /** The telemetry sink, or null when telemetry is off. */
    TelemetrySink *telemetry() { return telemetry_.get(); }

    /** Open the capture gate (called when the detailed window starts). */
    void startMeasurement();

    /**
     * Write the configured artifacts: Chrome trace JSON + sibling CSV
     * and/or the telemetry JSONL.  fatal() when a path is unwritable.
     */
    void writeOutputs() const;

    /** Exported obs statistics (see SimResult::obs). */
    StatSet stats() const;

    const ObsConfig &config() const { return cfg; }

  private:
    ObsConfig cfg;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<TelemetrySink> telemetry_;
};

/**
 * Create @p dir and any missing parents (mkdir -p).  fatal() when a
 * component exists as a non-directory or creation fails.  Used by the
 * sweep engine and benches for per-job obs artifact directories.
 */
void ensureDirectories(const std::string &dir);

/**
 * Register the standard observability flags (--trace-sample,
 * --trace-out, --trace-buf, --telemetry-window, --telemetry-out) on
 * @p args.  Pairs with obsConfigFromArgs so every driver exposes the
 * same knobs with the same semantics.
 */
void addObsArgs(ArgParser &args);

/**
 * Build an ObsConfig from flags registered by addObsArgs and validate
 * it.  fatal()s — beyond ObsConfig::validate — on explicitly passed
 * nonsense: "--trace-sample 0", a negative rate, "--trace-buf 0",
 * "--telemetry-window 0".  The zero defaults with the flag absent
 * simply mean "off".
 */
ObsConfig obsConfigFromArgs(const ArgParser &args);

/**
 * Sweep-driver variant of obsConfigFromArgs: the same numeric-knob
 * validation, but output paths are left empty — the sweep engine
 * derives per-job paths from SweepOptions::obsDir, so --trace-out /
 * --telemetry-out must be rejected by the caller before this runs.
 */
ObsConfig obsSweepTemplateFromArgs(const ArgParser &args);

} // namespace garibaldi

#endif // GARIBALDI_OBS_OBS_HH
