/**
 * @file
 * Fig. 3 reproduction — the LLC characterization motivating Garibaldi:
 *  (a) mean reuse (stack) distance of instruction vs data lines, 1 vs
 *      N cores, against the LLC associativity;
 *  (b) instruction share of LLC accesses (server ~13%, SPEC ~0.3%);
 *  (c) accesses per distinct cacheline (many-to-few vs few-to-many);
 *  (d) speedup of Mockingjay and Mockingjay+I-oracle over LRU.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/metrics.hh"
#include "sim/monitors.hh"
#include "sim/system.hh"

using namespace garibaldi;

namespace
{

struct CharRow
{
    double instrDist = 0;
    double dataDist = 0;
    double instrRatio = 0;
    double instrPerLine = 0;
    double dataPerLine = 0;
};

CharRow
characterize(const BenchArgs &args, const std::string &workload,
             std::uint32_t cores)
{
    SystemConfig cfg = defaultConfig(cores);
    cfg.seed = args.seed;
    System sys(cfg, homogeneousMix(workload, cores));
    ReuseDistanceMonitor reuse(sys.hierarchy().llc().totalSets(), 3);
    LineFrequencyMonitor freq;
    sys.hierarchy().addLlcListener(&reuse);
    sys.hierarchy().addLlcListener(&freq);
    Simulator(sys).run(args.warmup, args.detailed);
    return {reuse.instrMeanDistance(), reuse.dataMeanDistance(),
            freq.instrAccessRatio(), freq.instrAccessesPerLine(),
            freq.dataAccessesPerLine()};
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Fig. 3: reuse distances, access ratios, per-line "
                   "frequency, oracle potential");
    BenchArgs::addTo(args, /*sweep=*/false);
    args.parse(argc, argv);
    BenchArgs b = BenchArgs::from(args, /*sweep=*/false);

    printBenchHeader("Figure 3(a,b,c)",
                     "LLC reuse distance and access-pattern "
                     "characterization (LRU)",
                     b.config(), b);

    std::vector<std::string> spec = {"gcc", "bwaves", "lbm", "wrf"};
    std::vector<std::string> server = benchServerSet(b.full);

    TablePrinter t({"workload", "class", "cores", "reuse_I", "reuse_D",
                    "I_ratio", "acc/I-line", "acc/D-line"});
    auto add = [&](const std::string &w, bool is_server) {
        for (std::uint32_t cores : {1u, b.cores}) {
            CharRow row = characterize(b, w, cores);
            t.addRow({w, is_server ? "server" : "spec",
                      std::to_string(cores),
                      TablePrinter::num(row.instrDist, 1),
                      TablePrinter::num(row.dataDist, 1),
                      TablePrinter::pct(row.instrRatio, 2),
                      TablePrinter::num(row.instrPerLine, 2),
                      TablePrinter::num(row.dataPerLine, 2)});
        }
    };
    for (const auto &w : spec)
        add(w, false);
    for (const auto &w : server)
        add(w, true);
    emitTable(t, b.csv);
    std::printf("LLC associativity = %u: instruction reuse distances "
                "beyond it are contention victims (paper Fig. 3(a)).\n\n",
                b.config().llcAssoc);

    // ---- (d): potential of instruction management -------------------
    printBenchHeader("Figure 3(d)",
                     "LRU vs Mockingjay vs Mockingjay+I-oracle",
                     b.config(), b);
    ExperimentContext ctx(b.config(), b.warmup, b.detailed);
    TablePrinter d({"workload", "class", "mockingjay", "mj+I-oracle"});
    std::vector<double> mj_server, orc_server, mj_spec, orc_spec;
    auto potential = [&](const std::string &w, bool is_server) {
        Mix m = homogeneousMix(w, b.cores);
        double lru = ctx.runPolicy(PolicyKind::LRU, false, m)
                         .ipcHarmonicMean();
        double mj = ctx.runPolicy(PolicyKind::Mockingjay, false, m)
                        .ipcHarmonicMean();
        SystemConfig oracle = configWithPolicy(
            ctx.baseConfig(), PolicyKind::Mockingjay, false);
        oracle.llcInstrOracle = true;
        double orc = ctx.run(oracle, m).ipcHarmonicMean();
        d.addRow({w, is_server ? "server" : "spec",
                  TablePrinter::pct(mj / lru - 1, 1),
                  TablePrinter::pct(orc / lru - 1, 1)});
        (is_server ? mj_server : mj_spec).push_back(mj / lru);
        (is_server ? orc_server : orc_spec).push_back(orc / lru);
    };
    for (const auto &w : std::vector<std::string>{"gcc", "bwaves"})
        potential(w, false);
    for (const auto &w : benchServerSet(false))
        potential(w, true);
    emitTable(d, b.csv);
    std::printf("geomean speedup over LRU:  spec: mockingjay %s, "
                "+I-oracle %s | server: mockingjay %s, +I-oracle %s\n",
                TablePrinter::pct(geometricMean(mj_spec) - 1, 1).c_str(),
                TablePrinter::pct(geometricMean(orc_spec) - 1, 1).c_str(),
                TablePrinter::pct(geometricMean(mj_server) - 1,
                                  1).c_str(),
                TablePrinter::pct(geometricMean(orc_server) - 1,
                                  1).c_str());
    std::printf("Paper's shape: the I-oracle adds little over "
                "Mockingjay on SPEC but a large headroom on server "
                "workloads.\n");
    return 0;
}
