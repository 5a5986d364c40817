/**
 * @file
 * Fig. 4(c) reproduction: LLC instruction miss rate conditioned on the
 * hotness (hit/miss) of the data the instruction line triggers, plus
 * the §3.2 data-sharing degree ("73.7% of verilator's hitting data
 * lines were shared by multiple instructions").
 *
 * The paper's observation: instructions paired with HOT data miss
 * *more* than those paired with cold data (the instruction victim
 * problem) — with xalan as the exception.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/monitors.hh"
#include "sim/system.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Fig. 4(c): instruction miss rate by paired-data "
                   "hotness");
    BenchArgs::addTo(args, /*sweep=*/false);
    args.parse(argc, argv);
    BenchArgs b = BenchArgs::from(args, /*sweep=*/false);

    printBenchHeader("Figure 4(c)",
                     "MissRate(I | data hot) vs MissRate(I | data "
                     "cold) under Mockingjay",
                     b.config(), b);

    TablePrinter t({"workload", "missrate_datahot", "missrate_datacold",
                    "inversion", "sharing_degree"});
    for (const auto &w : benchServerSet(b.full)) {
        SystemConfig cfg = b.config();
        cfg.llcPolicy = PolicyKind::Mockingjay;
        System sys(cfg, homogeneousMix(w, b.cores));
        PairingMonitor mon;
        sys.hierarchy().addLlcListener(&mon);
        Simulator(sys).run(b.warmup, b.detailed);
        double hot = mon.instrMissRateDataHot();
        double cold = mon.instrMissRateDataCold();
        t.addRow({w, TablePrinter::pct(hot, 1),
                  TablePrinter::pct(cold, 1),
                  hot > cold ? "yes" : "no",
                  TablePrinter::num(mon.dataSharingDegree(), 2)});
    }
    emitTable(t, b.csv);
    std::printf("Paper's shape: 'inversion' (hot-paired instructions "
                "missing more) holds for nearly all server workloads; "
                "xalan is the exception.\n");
    return 0;
}
