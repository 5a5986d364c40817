/**
 * @file
 * Fig. 15 reproduction:
 *  (a) Garibaldi's benefit as the server share of a mixed server/SPEC
 *      multiprogrammed workload grows from 0% to 100%;
 *  (b) where to spend extra transistors: Garibaldi's table budget
 *      spent instead on extra LLC or extra L1I capacity.
 *
 * Both parts expand into one sweep and fan out over --jobs workers.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "sim/metrics.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Fig. 15: server/SPEC mix fraction and "
                   "extra-capacity alternatives");
    BenchArgs::addTo(args);
    args.addInt("mixes", 2, "mixes per point");
    args.addString("part", "ab", "which subfigures to run");
    args.parse(argc, argv);
    BenchArgs b = BenchArgs::from(args);
    std::uint32_t num_mixes = benchMixCount(args, b.full, 6);
    const std::string &part = benchParts(args, "ab");
    const bool run_a = part.find('a') != std::string::npos;
    const bool run_b = part.find('b') != std::string::npos;

    ExperimentContext ctx(b.config(), b.warmup, b.detailed);

    const std::vector<double> fractions = {0.0, 0.25, 0.5, 0.75, 1.0};
    std::vector<SweepJob> jobs;

    // Part (a): per server-share fraction, its own mixes under
    // lru/mockingjay/mockingjay+g.
    std::vector<std::vector<Mix>> frac_mixes(fractions.size());
    if (run_a) {
        for (std::size_t f = 0; f < fractions.size(); ++f) {
            for (std::uint32_t i = 0; i < num_mixes; ++i)
                frac_mixes[f].push_back(
                    serverFractionMix(b.seed + 10 * i, b.cores,
                                      fractions[f]));
            SweepSpec s(b.config());
            s.tag("part",
                  std::to_string(
                      static_cast<int>(fractions[f] * 100)) +
                      "%")
                .policies(lruMockingjayLadder())
                .mixes(frac_mixes[f]);
            appendJobs(jobs, s.expand());
        }
    }

    // Part (b): hardware-budget alternatives over random server mixes.
    std::vector<Mix> b_mixes;
    std::vector<std::string> b_labels;
    if (run_b) {
        for (std::uint32_t i = 0; i < num_mixes; ++i)
            b_mixes.push_back(randomServerMix(b.seed + 300 + i,
                                              b.cores));

        std::vector<AxisValue> vs;
        vs.push_back(configValue("lru",
                               configWithPolicy(b.config(),
                                                PolicyKind::LRU,
                                                false)));
        SystemConfig mj = configWithPolicy(b.config(),
                                           PolicyKind::Mockingjay,
                                           false);
        vs.push_back(configValue("mockingjay (baseline)", mj));

        // Extra LLC: Garibaldi's table budget spent as capacity.  One
        // extra way keeps the set count a power of two; the per-core
        // share must grow with it (sets x ways x 64 B / cores).
        SystemConfig extra_llc = mj;
        extra_llc.llcAssoc += 1;
        std::uint64_t sets = mj.llcBytes() / kLineBytes / mj.llcAssoc;
        extra_llc.llcBytesPerCore = sets * extra_llc.llcAssoc *
                                    kLineBytes / mj.numCores;
        vs.push_back(configValue("+LLC capacity (1 extra way)",
                               extra_llc));

        // Extra L1I (paper: +5 KB; smallest legal step here is one
        // extra way = +8 KB per core, 64 KB chip-wide — already ~3x
        // the 5 KB/core equivalent of Garibaldi's budget).
        SystemConfig extra_l1i = mj;
        extra_l1i.l1iAssocOverride = 9;
        extra_l1i.l1iBytes = extra_l1i.l1iBytes / 8 * 9;
        vs.push_back(configValue("+L1I capacity (1 extra way)",
                               extra_l1i));

        vs.push_back(configValue("garibaldi",
                               configWithPolicy(b.config(),
                                                PolicyKind::Mockingjay,
                                                true)));
        for (std::size_t i = 1; i < vs.size(); ++i)
            b_labels.push_back(vs[i].label);

        SweepSpec s(b.config());
        s.tag("part", "budget").axis("variant", vs).mixes(b_mixes);
        appendJobs(jobs, s.expand());
    }

    SweepRunner runner(ctx);
    ResultsTable results = runner.run(jobs, b.sweepOptions());

    if (run_a) {
        printBenchHeader("Figure 15(a)",
                         "speedup vs LRU across server workload share",
                         b.config(), b);
        TablePrinter t({"server_share", "mockingjay", "mockingjay+g",
                        "garibaldi_delta"});
        for (std::size_t f = 0; f < fractions.size(); ++f) {
            std::string tag =
                std::to_string(static_cast<int>(fractions[f] * 100)) +
                "%";
            std::vector<double> mj_r, mjg_r;
            for (const Mix &m : frac_mixes[f]) {
                double lru = results.value({{"part", tag},
                                            {"policy", "lru"},
                                            {"mix", m.name}},
                                           "metric");
                mj_r.push_back(results.value({{"part", tag},
                                              {"policy", "mockingjay"},
                                              {"mix", m.name}},
                                             "metric") /
                               lru);
                mjg_r.push_back(
                    results.value({{"part", tag},
                                   {"policy", "mockingjay+g"},
                                   {"mix", m.name}},
                                  "metric") /
                    lru);
            }
            double mj = geometricMean(mj_r);
            double mjg = geometricMean(mjg_r);
            t.addRow({tag, TablePrinter::num(mj, 4),
                      TablePrinter::num(mjg, 4),
                      TablePrinter::pct(mjg / mj - 1, 2)});
        }
        emitTable(t, b.csv);
        std::printf("Paper's shape: Garibaldi's delta over Mockingjay "
                    "grows with the server share (paper: +0.11%% at 0%% "
                    "to +5.3%% at 75%%+).\n\n");
    }

    if (run_b) {
        printBenchHeader("Figure 15(b)",
                         "spending the hardware budget: +LLC vs +L1I "
                         "vs Garibaldi",
                         b.config(), b);
        TablePrinter t({"config", "speedup_vs_lru"});
        for (const std::string &label : b_labels) {
            std::vector<double> r;
            for (const Mix &m : b_mixes) {
                double lru = results.value({{"part", "budget"},
                                            {"variant", "lru"},
                                            {"mix", m.name}},
                                           "metric");
                r.push_back(results.value({{"part", "budget"},
                                           {"variant", label},
                                           {"mix", m.name}},
                                          "metric") /
                            lru);
            }
            t.addRow({label, TablePrinter::num(geometricMean(r), 4)});
        }
        emitTable(t, b.csv);
        std::printf("Paper's shape: raw capacity (even more than "
                    "Garibaldi's budget) buys far less than pairwise "
                    "management (paper: +0.21%% / +0.48%% vs "
                    "+5.25%%).\n");
    }
    return 0;
}
