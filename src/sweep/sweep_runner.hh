/**
 * @file
 * Parallel sweep execution.
 *
 * SweepRunner drives a list of SweepJobs through an ExperimentContext
 * with parallelFor().  Each job builds and runs its own System (the
 * simulator stays single-threaded); the only shared mutable state is
 * the context's solo-IPC cache, which is pre-warmed before fan-out and
 * mutex-guarded besides.  Results land in a ResultsTable slot
 * addressed by job index, so the table — and everything printed from
 * it — is byte-identical for any --jobs value.
 */

#ifndef GARIBALDI_SWEEP_SWEEP_RUNNER_HH
#define GARIBALDI_SWEEP_SWEEP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "obs/obs_config.hh"
#include "sim/experiment.hh"
#include "sweep/results_table.hh"
#include "sweep/sweep_spec.hh"

namespace garibaldi
{

/**
 * Run @p body(i) for every i in [0, count) on min(@p jobs, count)
 * threads (jobs = 0 means all hardware threads) that pull indices from
 * one atomic counter, then join them.  With a single lane the loop
 * runs inline on the caller.  Each index runs exactly once; the order
 * across threads is unspecified, so callers write index-addressed
 * output slots.
 */
void parallelFor(unsigned jobs, std::size_t count,
                 const std::function<void(std::size_t)> &body);

/** An extra per-job output column beyond the §6 metric. */
struct MetricColumn
{
    std::string name;
    std::function<double(const SimResult &, const SweepJob &)> extract;
};

/** Execution knobs for one sweep. */
struct SweepOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned jobs = 1;
    /** Emit per-job completion lines on stderr. */
    bool progress = false;
    /** Extra metric columns appended after "metric". */
    std::vector<MetricColumn> extraMetrics;
    /**
     * Per-job observability artifacts.  When obsDir is non-empty each
     * job runs with obsTemplate as its obs config, output paths
     * rewritten to "<obsDir>/jobNNNN.trace.json" (+ sibling CSV) and
     * "<obsDir>/jobNNNN.telemetry.jsonl" — keyed by job index, not by
     * worker or completion order, so a sweep's artifact set is
     * byte-identical for any --jobs value.  The directory is created
     * up front (mkdir -p semantics).
     */
    std::string obsDir;
    ObsConfig obsTemplate{};
};

/** Runs expanded sweeps against one ExperimentContext. */
class SweepRunner
{
  public:
    /** @param ctx shared run settings; must outlive the runner. */
    explicit SweepRunner(const ExperimentContext &ctx);

    /**
     * Execute @p jobs and return one table row per job, in job order.
     * Coordinate columns are the union of coordinate axes across jobs
     * (absent coordinates render as ""); metric columns are "metric"
     * (§6 harmonic-mean IPC / weighted speedup) plus any extras.
     */
    ResultsTable run(const std::vector<SweepJob> &jobs,
                     const SweepOptions &opts = SweepOptions()) const;

    /** Convenience: expand @p spec and run it. */
    ResultsTable run(const SweepSpec &spec,
                     const SweepOptions &opts = SweepOptions()) const;

  private:
    const ExperimentContext &ctx;
};

} // namespace garibaldi

#endif // GARIBALDI_SWEEP_SWEEP_RUNNER_HH
