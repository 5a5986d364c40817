/**
 * @file
 * Fig. 14 reproduction — Garibaldi configuration sensitivity on random
 * server mixes (speedup normalized to LRU; all on Mockingjay):
 *  (a) DL_PA fields per pair entry k in {0,1,2,4,8};
 *  (b) protection threshold: Mockingjay-only / all-protected / fixed
 *      deltas {-16,0,+16} / dynamic;
 *  (c) pair table entries in {2^6, 2^10, 2^14, 2^18};
 *  (d) way-partitioning (0..8 instruction ways, Emissary-style
 *      criticality filter) vs Garibaldi.
 *
 * All requested parts expand into a single sweep (shared LRU baseline
 * jobs included) and fan out together over --jobs worker threads.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/metrics.hh"

using namespace garibaldi;

namespace
{

SystemConfig
mjGaribaldi(const SystemConfig &base)
{
    return configWithPolicy(base, PolicyKind::Mockingjay, true);
}

/** Geomean speedup of (part, variant) over the shared LRU baseline. */
double
speedupVsLru(const ResultsTable &results, const std::string &part,
             const std::string &variant, const std::vector<Mix> &mixes)
{
    std::vector<double> ratios;
    for (const Mix &m : mixes) {
        double v = results.value({{"part", part},
                                  {"variant", variant},
                                  {"mix", m.name}},
                                 "metric");
        double lru = results.value({{"part", "base"},
                                    {"variant", "lru"},
                                    {"mix", m.name}},
                                   "metric");
        ratios.push_back(v / lru);
    }
    return geometricMean(ratios);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Fig. 14: Garibaldi sensitivity (k, threshold, pair "
                   "table size, partitioning)");
    BenchArgs::addTo(args);
    args.addInt("mixes", 3, "random server mixes per point (paper: 30)");
    args.addString("part", "abcd", "which subfigures to run");
    args.parse(argc, argv);
    BenchArgs b = BenchArgs::from(args);
    std::uint32_t num_mixes = benchMixCount(args, b.full, 10);
    const std::string &part = benchParts(args, "abcd");

    ExperimentContext ctx(b.config(), b.warmup, b.detailed);
    std::vector<Mix> mixes;
    for (std::uint32_t i = 0; i < num_mixes; ++i)
        mixes.push_back(randomServerMix(b.seed + 100 + i, b.cores));

    // Variant axes per part (configValue points); every job also
    // carries its "part" tag so merged specs stay addressable.
    const bool run_a = part.find('a') != std::string::npos;
    const bool run_b = part.find('b') != std::string::npos;
    const bool run_c = part.find('c') != std::string::npos;
    const bool run_d = part.find('d') != std::string::npos;

    std::vector<SweepJob> jobs;
    if (run_a || run_b || run_c || run_d) {
        // Shared LRU baseline, simulated once for all parts.
        SweepSpec base(b.config());
        base.tag("part", "base")
            .axis("variant",
                  {configValue("lru",
                               configWithPolicy(b.config(),
                                                PolicyKind::LRU,
                                                false))})
            .mixes(mixes);
        appendJobs(jobs, base.expand());
    }

    const std::vector<unsigned> k_values = {0u, 1u, 2u, 4u, 8u};
    if (run_a) {
        std::vector<AxisValue> vs;
        for (unsigned k : k_values) {
            SystemConfig cfg = mjGaribaldi(b.config());
            cfg.garibaldi.k = k;
            vs.push_back(configValue("k" + std::to_string(k), cfg));
        }
        SweepSpec s(b.config());
        s.tag("part", "a").axis("variant", vs).mixes(mixes);
        appendJobs(jobs, s.expand());
    }

    const std::vector<int> fixed_deltas = {-16, 0, 16};
    std::vector<std::string> b_labels;
    if (run_b) {
        std::vector<AxisValue> vs;
        vs.push_back(configValue("mockingjay-only",
                               configWithPolicy(b.config(),
                                                PolicyKind::Mockingjay,
                                                false)));
        SystemConfig all = mjGaribaldi(b.config());
        all.garibaldi.thresholdMode = ThresholdMode::AllProtected;
        vs.push_back(configValue("all-protected", all));
        for (int delta : fixed_deltas) {
            SystemConfig cfg = mjGaribaldi(b.config());
            cfg.garibaldi.thresholdMode = ThresholdMode::Fixed;
            cfg.garibaldi.fixedThresholdDelta = delta;
            vs.push_back(configValue("fixed" +
                                       std::string(delta >= 0 ? "+"
                                                              : "") +
                                       std::to_string(delta),
                                   cfg));
        }
        vs.push_back(configValue("dynamic (ours)",
                               mjGaribaldi(b.config())));
        for (const AxisValue &v : vs)
            b_labels.push_back(v.label);
        SweepSpec s(b.config());
        s.tag("part", "b").axis("variant", vs).mixes(mixes);
        appendJobs(jobs, s.expand());
    }

    const std::vector<unsigned> c_log_entries = {6u, 10u, 14u, 18u};
    if (run_c) {
        std::vector<AxisValue> vs;
        for (unsigned lg : c_log_entries) {
            SystemConfig cfg = mjGaribaldi(b.config());
            cfg.garibaldi.pairTableEntries = 1u << lg;
            vs.push_back(configValue("2^" + std::to_string(lg), cfg));
        }
        SweepSpec s(b.config());
        s.tag("part", "c").axis("variant", vs).mixes(mixes);
        appendJobs(jobs, s.expand());
    }

    const std::vector<std::uint32_t> d_ways = {0u, 1u, 2u, 4u, 8u};
    if (run_d) {
        std::vector<AxisValue> vs;
        for (std::uint32_t ways : d_ways) {
            SystemConfig cfg = configWithPolicy(
                b.config(), PolicyKind::Mockingjay, false);
            cfg.llcInstrPartitionWays = ways;
            vs.push_back(configValue(std::to_string(ways) + "-way", cfg));
        }
        vs.push_back(configValue("garibaldi", mjGaribaldi(b.config())));
        SweepSpec s(b.config());
        s.tag("part", "d").axis("variant", vs).mixes(mixes);
        appendJobs(jobs, s.expand());
    }

    SweepRunner runner(ctx);
    ResultsTable results = runner.run(jobs, b.sweepOptions());

    if (run_a) {
        printBenchHeader("Figure 14(a)",
                         "DL_PA fields per pair entry (k)", b.config(),
                         b);
        TablePrinter t({"k", "speedup_vs_lru"});
        for (unsigned k : k_values)
            t.addRow({std::to_string(k),
                      TablePrinter::num(
                          speedupVsLru(results, "a",
                                       "k" + std::to_string(k), mixes),
                          4)});
        emitTable(t, b.csv);
        std::printf("Paper's shape: small k (1-2) is best; k=0 loses "
                    "the prefetch, large k over-prefetches.\n\n");
    }

    if (run_b) {
        printBenchHeader("Figure 14(b)",
                         "protection threshold policy (init 32)",
                         b.config(), b);
        TablePrinter t({"threshold", "speedup_vs_lru"});
        for (const std::string &label : b_labels)
            t.addRow({label,
                      TablePrinter::num(
                          speedupVsLru(results, "b", label, mixes),
                          4)});
        emitTable(t, b.csv);
        std::printf("Paper's shape: selective beats all-protected; "
                    "dynamic beats every fixed threshold.\n\n");
    }

    if (run_c) {
        printBenchHeader("Figure 14(c)", "pair table entries",
                         b.config(), b);
        TablePrinter t({"entries", "speedup_vs_lru"});
        for (unsigned lg : c_log_entries)
            t.addRow({"2^" + std::to_string(lg),
                      TablePrinter::num(
                          speedupVsLru(results, "c",
                                       "2^" + std::to_string(lg),
                                       mixes),
                          4)});
        emitTable(t, b.csv);
        std::printf("Paper's shape: bigger tables help monotonically; "
                    "2^14 is the practical point, 2^18 is best but "
                    "costs >6%% of LLC capacity.\n\n");
    }

    if (run_d) {
        printBenchHeader("Figure 14(d)",
                         "way-partitioned instruction protection vs "
                         "Garibaldi",
                         b.config(), b);
        TablePrinter t({"config", "speedup_vs_lru"});
        for (std::uint32_t ways : d_ways)
            t.addRow({std::to_string(ways) + "-way",
                      TablePrinter::num(
                          speedupVsLru(results, "d",
                                       std::to_string(ways) + "-way",
                                       mixes),
                          4)});
        t.addRow({"garibaldi",
                  TablePrinter::num(
                      speedupVsLru(results, "d", "garibaldi", mixes),
                      4)});
        emitTable(t, b.csv);
        std::printf("Paper's shape: a small partition helps, a big one "
                    "starves data below LRU; query-based selection "
                    "(Garibaldi) wins without losing associativity.\n");
    }
    return 0;
}
