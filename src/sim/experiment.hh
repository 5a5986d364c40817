/**
 * @file
 * Experiment runner shared by benches, examples and the end-to-end
 * tests: builds systems, runs them, computes the §6 metrics (harmonic
 * mean IPC for homogeneous mixes, weighted speedup for heterogeneous
 * mixes) and caches per-workload solo IPCs for the weighting.
 *
 * The context is safe for concurrent callers (the sweep engine fans
 * jobs out across a thread pool): run() builds an independent System
 * per call, and the solo-IPC cache behind metric()/soloIpc() is
 * mutex-guarded.  Solo IPCs are deterministic functions of the base
 * config, so duplicated computation under contention is benign.
 */

#ifndef GARIBALDI_SIM_EXPERIMENT_HH
#define GARIBALDI_SIM_EXPERIMENT_HH

#include <map>
#include <string>
#include <vector>

#include "common/sharing.hh"
#include "sim/energy.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "workloads/mix.hh"

namespace garibaldi
{

/** Derive a config running @p kind, optionally with Garibaldi on top. */
SystemConfig configWithPolicy(const SystemConfig &base, PolicyKind kind,
                              bool garibaldi_enabled);

/** Shared run settings + solo-IPC cache. */
class ExperimentContext
{
  public:
    /**
     * @param base machine configuration template
     * @param warmup warmup instructions per core
     * @param detailed measured instructions per core
     */
    ExperimentContext(SystemConfig base, std::uint64_t warmup,
                      std::uint64_t detailed);

    /** Build and run one configuration on one mix. */
    SimResult run(const SystemConfig &config, const Mix &mix) const;

    /** Run the base config with @p kind (+ optional Garibaldi). */
    SimResult runPolicy(PolicyKind kind, bool garibaldi_enabled,
                        const Mix &mix) const;

    /**
     * §6 metric of a finished run: harmonic-mean IPC for homogeneous
     * mixes, weighted speedup (vs cached solo IPCs) otherwise.
     * Thread-safe.
     */
    double metric(const SimResult &result, const Mix &mix) const;

    /**
     * Solo IPC of @p workload on a single-core instance of the base
     * machine under LRU; cached for the context's lifetime.
     * Thread-safe: concurrent misses may duplicate the (deterministic)
     * solo run, but the cached value is identical either way.
     */
    double soloIpc(const std::string &workload) const;

    const SystemConfig &baseConfig() const { return base; }
    std::uint64_t warmupInstructions() const { return warmup; }
    std::uint64_t detailedInstructions() const { return detailed; }

  private:
    SystemConfig base;
    std::uint64_t warmup;
    std::uint64_t detailed;
    mutable SimMutex soloMutex;
    mutable std::map<std::string, double>
        soloCache SIM_GUARDED_BY(soloMutex);
};

} // namespace garibaldi

#endif // GARIBALDI_SIM_EXPERIMENT_HH
