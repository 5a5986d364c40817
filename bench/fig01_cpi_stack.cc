/**
 * @file
 * Fig. 1 reproduction: normalized CPI stacks of SPEC vs server
 * workloads at 1 core and at N cores under a state-of-the-art LLC
 * policy (Mockingjay).  The paper's observation: ifetch is a dominant
 * CPI component for server workloads and grows with core count, while
 * it is negligible for SPEC.
 *
 * Runs on the sweep engine: one job per (core count, workload), fanned
 * out over --jobs worker threads.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Fig. 1: CPI stacks, 1 vs N cores, SPEC vs server");
    BenchArgs::addTo(args);
    args.parse(argc, argv);
    BenchArgs b = BenchArgs::from(args);

    printBenchHeader("Figure 1",
                     "CPI stack (cycles per instruction) under "
                     "Mockingjay, 1 core vs N cores",
                     b.config(), b);

    std::vector<std::string> workloads = {"gcc", "gobmk", "bwaves",
                                          "lbm"};
    for (const auto &w : benchServerSet(b.full))
        workloads.push_back(w);

    // One job per (core count, workload).  --cores 1 prints the 1-core
    // rows twice, from one set of jobs.
    const std::vector<std::uint32_t> core_counts = {1u, b.cores};
    std::vector<std::uint32_t> job_cores = {1u};
    if (b.cores != 1)
        job_cores.push_back(b.cores);
    std::vector<SweepJob> jobs;
    for (std::uint32_t cores : job_cores) {
        SystemConfig cfg = defaultConfig(cores);
        cfg.seed = b.seed;
        cfg.llcPolicy = PolicyKind::Mockingjay;
        std::vector<Mix> ms;
        for (const auto &w : workloads)
            ms.push_back(homogeneousMix(w, cores));
        SweepSpec s(cfg);
        s.tag("cores", std::to_string(cores)).mixes(ms);
        appendJobs(jobs, s.expand());
    }

    // Each job's CPI stack, summed over its cores, one column per
    // component, and its instruction count.  Cycle counts stay below
    // 2^53, so a double carries them exactly.
    SweepOptions opts = b.sweepOptions();
    for (std::size_t i = 0; i < kNumCpiComponents; ++i)
        opts.extraMetrics.push_back(
            {cpiComponentName(static_cast<CpiComponent>(i)),
             [i](const SimResult &r, const SweepJob &) {
                 return static_cast<double>(r.totalCpi().cycles[i]);
             }});
    opts.extraMetrics.push_back(
        {"instructions", [](const SimResult &r, const SweepJob &) {
             std::uint64_t n = 0;
             for (const auto &c : r.cores)
                 n += c.instructions;
             return static_cast<double>(n);
         }});
    ExperimentContext ctx(b.config(), b.warmup, b.detailed);
    ResultsTable results = SweepRunner(ctx).run(jobs, opts);

    TablePrinter t({"workload", "cores", "base", "branch", "ifetch",
                    "data", "store", "tlb", "total_cpi",
                    "ifetch_share"});
    for (const auto &w : workloads) {
        for (std::uint32_t cores : core_counts) {
            CoordSelector sel = {{"cores", std::to_string(cores)},
                                 {"mix", w}};
            CpiStack stack;
            for (std::size_t i = 0; i < kNumCpiComponents; ++i)
                stack.cycles[i] = static_cast<std::uint64_t>(
                    results.value(sel, cpiComponentName(
                                           static_cast<CpiComponent>(i))));
            double n = results.value(sel, "instructions");
            double ifetch = static_cast<double>(stack.ifetchCycles());
            double data = static_cast<double>(stack.dataCycles());
            double tlb = static_cast<double>(
                stack.of(CpiComponent::Itlb) + stack.of(CpiComponent::Dtlb));
            double total = static_cast<double>(stack.total());
            t.addRow({w, std::to_string(cores),
                      TablePrinter::num(stack.of(CpiComponent::Base) / n, 3),
                      TablePrinter::num(
                          stack.of(CpiComponent::Branch) / n, 3),
                      TablePrinter::num(ifetch / n, 3),
                      TablePrinter::num(data / n, 3),
                      TablePrinter::num(stack.of(CpiComponent::Store) / n,
                                        3),
                      TablePrinter::num(tlb / n, 3),
                      TablePrinter::num(total / n, 3),
                      TablePrinter::pct(ifetch / total, 1)});
        }
    }
    emitTable(t, b.csv);

    std::printf("Paper's shape: server ifetch share is large and grows "
                "from 1 to %u cores;\nSPEC ifetch share is negligible "
                "at any core count.\n",
                b.cores);
    return 0;
}
