#include "sim/system.hh"

#include <map>
#include <string>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "workloads/catalog.hh"

namespace garibaldi
{

System::System(const SystemConfig &config, const Mix &mix)
    : config_(config), mix_(mix)
{
    if (mix.slots.size() != config.numCores)
        fatal("mix '", mix.name, "' has ", mix.slots.size(),
              " slots for ", config.numCores, " cores");

    mem = std::make_unique<MemoryHierarchy>(config.hierarchyParams());

    if (config.garibaldiEnabled) {
        gari = std::make_unique<Garibaldi>(config.garibaldi,
                                           config.numCores);
        mem->setLlcCompanion(gari.get());
    }

    if (config.obs.anyOn()) {
        obsSub = std::make_unique<ObsSubsystem>(config.obs,
                                                config.numCores);
        if (Tracer *t = obsSub->tracer()) {
            mem->setTracer(t);
            if (gari)
                gari->setTracer(t);
        }
    }

    // A code layout depends only on its workload's catalog params, so
    // the streams of one slot name share one image.
    std::map<std::string, std::shared_ptr<const CodeLayout>> layouts;
    for (CoreId c = 0; c < config.numCores; ++c) {
        WorkloadParams wp = workloadByName(mix.slots[c]);
        std::uint64_t stream_seed =
            mix64(config.seed ^ (std::uint64_t{c} << 32) ^
                  mix64(std::hash<std::string>{}(wp.name)));
        std::shared_ptr<const CodeLayout> &layout = layouts[mix.slots[c]];
        if (!layout)
            layout = SynthWorkload::makeLayout(wp);
        streams.push_back(
            std::make_unique<SynthWorkload>(wp, stream_seed, layout));

        CoreParams cp = config.core;
        cp.dependentLoadFraction = wp.dependentLoadFraction;
        cores.push_back(std::make_unique<CoreModel>(
            c, cp, *mem, mix64(config.seed + 0x9e37 + c)));
    }
}

} // namespace garibaldi
