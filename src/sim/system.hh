/**
 * @file
 * The assembled simulated machine: hierarchy + optional Garibaldi
 * module + one core model and workload stream per core.
 */

#ifndef GARIBALDI_SIM_SYSTEM_HH
#define GARIBALDI_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/core_model.hh"
#include "garibaldi/garibaldi.hh"
#include "mem/hierarchy.hh"
#include "obs/obs.hh"
#include "sim/system_config.hh"
#include "workloads/mix.hh"
#include "workloads/synth_workload.hh"

namespace garibaldi
{

/** A ready-to-run multicore machine loaded with a workload mix. */
class System
{
  public:
    /**
     * @param config machine configuration
     * @param mix per-core workload assignment (size must equal cores)
     */
    System(const SystemConfig &config, const Mix &mix);

    MemoryHierarchy &hierarchy() { return *mem; }
    CoreModel &core(CoreId c) { return *cores.at(c); }
    MicroOpStream &stream(CoreId c) { return *streams.at(c); }
    Garibaldi *garibaldi() { return gari.get(); }
    /** Observability subsystem; null when every obs knob is off. */
    ObsSubsystem *obs() { return obsSub.get(); }
    std::uint32_t numCores() const { return config_.numCores; }
    const SystemConfig &config() const { return config_; }
    const Mix &mix() const { return mix_; }

  private:
    SystemConfig config_;
    Mix mix_;
    std::unique_ptr<MemoryHierarchy> mem;
    std::unique_ptr<Garibaldi> gari;
    std::unique_ptr<ObsSubsystem> obsSub;
    std::vector<std::unique_ptr<SynthWorkload>> streams;
    std::vector<std::unique_ptr<CoreModel>> cores;
};

} // namespace garibaldi

#endif // GARIBALDI_SIM_SYSTEM_HH
