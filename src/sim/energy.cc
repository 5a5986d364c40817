#include "sim/energy.hh"

#include <algorithm>

namespace garibaldi
{

StatSet
EnergyBreakdown::toStatSet() const
{
    StatSet s;
    s.add("core_j", core);
    s.add("l1_j", l1);
    s.add("l2_j", l2);
    s.add("llc_j", llc);
    s.add("dram_j", dram);
    s.add("garibaldi_j", garibaldi);
    s.add("static_j", staticLeakage);
    s.add("total_j", total());
    return s;
}

EnergyBreakdown
computeEnergy(const SimResult &result, const SystemConfig &config,
              const EnergyParams &params)
{
    EnergyBreakdown e;
    constexpr double kNj = 1e-9;

    std::uint64_t instrs = 0;
    Cycle longest = 0;
    for (const auto &c : result.cores) {
        instrs += c.instructions;
        longest = std::max(longest, c.cycles);
    }
    e.core = instrs * params.coreDynamicNjPerInstr * kNj;

    auto stat = [&result](const char *name) {
        return result.mem.has(name) ? result.mem.get(name) : 0.0;
    };
    e.l1 = (stat("l1i.accesses") + stat("l1d.accesses")) *
           params.l1AccessNj * kNj;
    e.l2 = stat("l2.accesses") * params.l2AccessNj * kNj;
    e.llc = stat("llc.accesses") * params.llcAccessNj * kNj;
    e.dram = (stat("dram.reads") + stat("dram.writes")) *
             params.dramAccessNj * kNj;

    if (result.garibaldi.has("table_accesses")) {
        e.garibaldi = result.garibaldi.get("table_accesses") *
                      params.pairTableAccessNj * kNj;
    }

    // Static leakage accrues for the duration of the run (the slowest
    // core defines the wall clock of the machine).
    double seconds = static_cast<double>(longest) /
                     (params.clockGhz * 1e9);
    double llc_mb = static_cast<double>(config.llcBytes()) /
                    (1024.0 * 1024.0);
    double watts = params.staticWattsPerCore * config.numCores +
                   params.staticWattsLlcPerMb * llc_mb;
    e.staticLeakage = watts * seconds;
    return e;
}

} // namespace garibaldi
