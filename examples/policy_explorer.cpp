/**
 * @file
 * Policy explorer: run any workload/mix under any LLC policy (with or
 * without Garibaldi, partitioning, or the I-oracle) and dump the full
 * statistics of every level — the tool for digging into *why* a policy
 * wins or loses on a workload.
 *
 * Usage: policy_explorer --workload tpcc --policy mockingjay
 *            [--garibaldi] [--cores N] [--instr N] [--oracle]
 *            [--partition N] [--all-stats]
 */

#include <cstdio>
#include <limits>

#include "common/cli.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workloads/catalog.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Garibaldi policy explorer");
    args.addInt("cores", 8, "number of cores");
    args.addInt("warmup", 50000, "warmup instructions per core");
    args.addInt("instr", 250000, "measured instructions per core");
    args.addString("workload", "tpcc",
                   "workload name (homogeneous mix)");
    args.addString("policy", "mockingjay",
                   "lru|drrip|hawkeye|mockingjay");
    args.addFlag("garibaldi", "attach the Garibaldi module");
    args.addFlag("oracle", "instruction-oracle LLC (Fig. 3(d))");
    args.addInt("partition", 0,
                "LLC ways reserved for criticality-marked instruction "
                "lines (Fig. 14(d))");
    args.addString("threshold-mode", "dynamic",
                   "dynamic|fixed|all (Fig. 14(b))");
    args.addInt("threshold-delta", 0, "fixed-mode delta from init 32");
    args.addInt("k", 1, "DL_PA fields per pair entry (Fig. 14(a))");
    args.addInt("qbs-attempts", 2, "QBS_MAX_ATTEMPTS per eviction");
    args.addInt("pair-entries", 16384, "pair table entries");
    args.addFlag("all-stats", "dump every counter");
    args.parse(argc, argv);

    std::uint32_t cores = static_cast<std::uint32_t>(
        args.getUnsigned("cores", std::numeric_limits<std::uint32_t>::max()));
    SystemConfig cfg = defaultConfig(cores);
    cfg.llcPolicy = parsePolicyKind(args.getString("policy"));
    cfg.garibaldiEnabled = args.getFlag("garibaldi");
    cfg.llcInstrOracle = args.getFlag("oracle");
    cfg.llcInstrPartitionWays = static_cast<std::uint32_t>(
        args.getUnsigned("partition",
                         std::numeric_limits<std::uint32_t>::max()));
    const std::string &tm = args.getString("threshold-mode");
    if (tm == "fixed")
        cfg.garibaldi.thresholdMode = ThresholdMode::Fixed;
    else if (tm == "all")
        cfg.garibaldi.thresholdMode = ThresholdMode::AllProtected;
    else if (tm != "dynamic")
        fatal("--threshold-mode '", tm, "' must be one of "
              "dynamic|fixed|all");
    cfg.garibaldi.fixedThresholdDelta = static_cast<int>(
        args.getInt("threshold-delta", std::numeric_limits<int>::min(),
                    std::numeric_limits<int>::max()));
    cfg.garibaldi.k = static_cast<unsigned>(
        args.getUnsigned("k", std::numeric_limits<unsigned>::max()));
    cfg.garibaldi.qbsMaxAttempts = static_cast<unsigned>(args.getUnsigned(
        "qbs-attempts", std::numeric_limits<unsigned>::max()));
    cfg.garibaldi.pairTableEntries = static_cast<std::uint32_t>(
        args.getUnsigned("pair-entries",
                         std::numeric_limits<std::uint32_t>::max()));

    ExperimentContext ctx(cfg, args.getUnsigned("warmup"),
                          args.getUnsigned("instr"));
    Mix mix = homogeneousMix(args.getString("workload"), cores);

    std::printf("machine: %s\n", cfg.summary().c_str());
    SimResult r = ctx.run(cfg, mix);

    std::printf("\nper-core IPC:");
    for (const auto &c : r.cores)
        std::printf(" %.4f", c.ipc);
    std::printf("\nhmean IPC %.4f\n\n", r.ipcHarmonicMean());

    CpiStack total = r.totalCpi();
    std::uint64_t instrs = 0;
    for (const auto &c : r.cores)
        instrs += c.instructions;
    std::printf("CPI stack (per instruction):\n");
    for (std::size_t i = 0; i < kNumCpiComponents; ++i) {
        auto comp = static_cast<CpiComponent>(i);
        std::printf("  %-11s %.4f\n", cpiComponentName(comp),
                    static_cast<double>(total.of(comp)) / instrs);
    }

    auto rate = [&r](const char *hits, const char *acc) {
        double a = r.mem.get(acc);
        return a > 0 ? r.mem.get(hits) / a : 0.0;
    };
    std::printf("\nhit rates: l1i %.3f  l1d %.3f  l2 %.3f  llc %.3f\n",
                rate("l1i.hits", "l1i.accesses"),
                rate("l1d.hits", "l1d.accesses"),
                rate("l2.hits", "l2.accesses"),
                rate("llc.hits", "llc.accesses"));
    std::printf("llc instr: %.0f accesses (%.1f%% of llc), miss rate "
                "%.3f\n",
                r.mem.get("llc.instr_accesses"),
                100 * r.mem.get("llc.instr_accesses") /
                    r.mem.get("llc.accesses"),
                1.0 - r.mem.get("llc.instr_hits") /
                          r.mem.get("llc.instr_accesses"));

    if (args.getFlag("all-stats")) {
        std::printf("\nmemory hierarchy:\n%s", r.mem.toString().c_str());
        std::printf("\ntlb:\n%s", r.tlb.toString().c_str());
        if (cfg.garibaldiEnabled)
            std::printf("\ngaribaldi:\n%s",
                        r.garibaldi.toString().c_str());
    }
    return 0;
}
