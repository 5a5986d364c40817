/**
 * @file
 * Fig. 13 reproduction: instruction-fetch stall cycles and total
 * energy, normalized to the LRU baseline, for Mockingjay with and
 * without Garibaldi (and DRRIP/Hawkeye variants with --full).
 *
 * Runs on the sweep engine (workload x policy, --jobs worker threads).
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/metrics.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Fig. 13: ifetch stall cycles and energy vs LRU");
    BenchArgs::addTo(args);
    args.parse(argc, argv);
    BenchArgs b = BenchArgs::from(args);

    printBenchHeader("Figure 13",
                     "ifetch stalled cycles and energy normalized to "
                     "LRU (negative = reduction)",
                     b.config(), b);

    std::vector<PolicyVariant> policies = {
        {"lru", PolicyKind::LRU, false}};
    std::vector<PolicyKind> kinds = {PolicyKind::Mockingjay};
    if (b.full)
        kinds.insert(kinds.begin(),
                     {PolicyKind::DRRIP, PolicyKind::Hawkeye});
    std::vector<std::string> headers{"workload"};
    for (PolicyKind kind : kinds) {
        for (bool g : {false, true}) {
            std::string label = policyKindName(kind);
            if (g)
                label += "+g";
            policies.push_back({label, kind, g});
            headers.push_back(label + ":ifetch");
            headers.push_back(label + ":energy");
        }
    }
    TablePrinter t(headers);

    std::vector<Mix> ms;
    for (const auto &w : benchServerSet(b.full))
        ms.push_back(homogeneousMix(w, b.cores));
    SweepSpec spec(b.config());
    spec.mixes(ms).policies(policies);

    SweepOptions opts = b.sweepOptions();
    opts.extraMetrics = {
        {"ifetch",
         [](const SimResult &r, const SweepJob &) {
             return static_cast<double>(r.ifetchStallCycles());
         }},
        {"energy",
         [](const SimResult &r, const SweepJob &job) {
             return computeEnergy(r, job.config).total();
         }},
    };
    ExperimentContext ctx(b.config(), b.warmup, b.detailed);
    ResultsTable results = SweepRunner(ctx).run(spec, opts);

    std::vector<std::vector<double>> ifetch_r(policies.size() - 1);
    std::vector<std::vector<double>> energy_r(policies.size() - 1);
    for (const Mix &m : ms) {
        auto value = [&](const std::string &policy, const char *col) {
            return results.value({{"mix", m.name}, {"policy", policy}},
                                 col);
        };
        double lru_ifetch = value("lru", "ifetch");
        double lru_energy = value("lru", "energy");
        std::vector<std::string> row{m.name};
        for (std::size_t i = 1; i < policies.size(); ++i) {
            double fi = value(policies[i].label, "ifetch") / lru_ifetch -
                        1.0;
            double fe = value(policies[i].label, "energy") / lru_energy -
                        1.0;
            ifetch_r[i - 1].push_back(1.0 + fi);
            energy_r[i - 1].push_back(1.0 + fe);
            row.push_back(TablePrinter::pct(fi, 1));
            row.push_back(TablePrinter::pct(fe, 1));
        }
        t.addRow(row);
    }
    std::vector<std::string> geo{"geomean"};
    for (std::size_t i = 0; i < ifetch_r.size(); ++i) {
        geo.push_back(
            TablePrinter::pct(geometricMean(ifetch_r[i]) - 1, 1));
        geo.push_back(
            TablePrinter::pct(geometricMean(energy_r[i]) - 1, 1));
    }
    t.addRow(geo);
    emitTable(t, b.csv);

    std::printf("Paper's shape: Garibaldi deepens the ifetch-stall "
                "reduction (paper: Mockingjay -9%% vs +Garibaldi -18%%) "
                "and saves energy on most workloads (paper: -10.4%% vs "
                "LRU; kafka/tatp are the exceptions).\n");
    return 0;
}
