/**
 * @file
 * Fig. 11 reproduction: end-to-end weighted speedup over LRU across
 * randomly drawn multiprogrammed server mixes, for Hawkeye and
 * Mockingjay each with and without Garibaldi, sorted by the
 * Mockingjay+Garibaldi speedup (as in the paper).
 *
 * Runs on the sweep engine: the (mix x policy) cross product fans out
 * over --jobs worker threads; the table is assembled from the
 * ResultsTable afterwards, so output is identical for any --jobs.
 */

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/metrics.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Fig. 11: end-to-end comparison over random server "
                   "mixes");
    BenchArgs::addTo(args);
    args.addInt("mixes", 10, "number of random mixes (60 in the paper)");
    args.parse(argc, argv);
    BenchArgs b = BenchArgs::from(args);
    std::uint32_t mixes = benchMixCount(args, b.full, 60);

    printBenchHeader("Figure 11",
                     "weighted speedup over LRU, " +
                         std::to_string(mixes) + " random server mixes",
                     b.config(), b);

    ExperimentContext ctx(b.config(), b.warmup, b.detailed);

    std::vector<Mix> ms;
    for (std::uint32_t i = 0; i < mixes; ++i)
        ms.push_back(randomServerMix(b.seed + i, b.cores));

    const std::vector<PolicyVariant> policies = {
        {"lru", PolicyKind::LRU, false},
        {"hawkeye", PolicyKind::Hawkeye, false},
        {"hawkeye+g", PolicyKind::Hawkeye, true},
        {"mockingjay", PolicyKind::Mockingjay, false},
        {"mockingjay+g", PolicyKind::Mockingjay, true},
    };
    SweepSpec spec(b.config());
    spec.mixes(ms).policies(policies);

    SweepRunner runner(ctx);
    ResultsTable results = runner.run(spec, b.sweepOptions());

    struct Row
    {
        std::string mix;
        double hawkeye, hawkeye_g, mj, mj_g;
    };
    std::vector<Row> rows;
    for (const Mix &m : ms) {
        auto speedup = [&](const char *policy) {
            return results.value({{"mix", m.name}, {"policy", policy}},
                                 "metric") /
                   results.value({{"mix", m.name}, {"policy", "lru"}},
                                 "metric");
        };
        rows.push_back({m.name, speedup("hawkeye"),
                        speedup("hawkeye+g"), speedup("mockingjay"),
                        speedup("mockingjay+g")});
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &bb) { return a.mj_g < bb.mj_g; });

    TablePrinter t({"mix", "hawkeye", "hawkeye+gari", "mockingjay",
                    "mockingjay+gari"});
    std::vector<double> h, hg, mj, mjg;
    for (const auto &r : rows) {
        t.addRow({r.mix, TablePrinter::num(r.hawkeye, 4),
                  TablePrinter::num(r.hawkeye_g, 4),
                  TablePrinter::num(r.mj, 4),
                  TablePrinter::num(r.mj_g, 4)});
        h.push_back(r.hawkeye);
        hg.push_back(r.hawkeye_g);
        mj.push_back(r.mj);
        mjg.push_back(r.mj_g);
    }
    t.addRow({"geomean", TablePrinter::num(geometricMean(h), 4),
              TablePrinter::num(geometricMean(hg), 4),
              TablePrinter::num(geometricMean(mj), 4),
              TablePrinter::num(geometricMean(mjg), 4)});
    emitTable(t, b.csv);
    std::printf("Paper's shape: Hawkeye+Garibaldi outperforms plain "
                "Mockingjay; Mockingjay+Garibaldi is best overall "
                "(paper: 1.3%% / 5.6%% / 4.0%% / 9.3%% geomean over "
                "LRU).\n");
    return 0;
}
