/**
 * @file
 * Sweep-engine quickstart: declare a small bank-count x policy x
 * workload sweep, fan it out over worker threads, and print the
 * structured results as CSV and JSON.  Demonstrates the SweepSpec
 * builder, SweepRunner options (jobs, progress) and ResultsTable
 * selector lookups — the same machinery every figure bench runs on.
 *
 * Usage: sweep_quickstart [--jobs N] [--instr N] [--warmup N] [--json]
 */

#include <cstdio>
#include <limits>

#include "common/cli.hh"
#include "sim/experiment.hh"
#include "sweep/sweep_runner.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Sweep quickstart: banks x policy x workload on the "
                   "parallel sweep engine");
    args.addInt("cores", 4, "number of cores");
    args.addInt("warmup", 20000, "warmup instructions per core");
    args.addInt("instr", 50000, "measured instructions per core");
    args.addInt("jobs", 0,
                "worker threads (0 = all hardware threads); results "
                "are identical for any value");
    args.addFlag("json", "emit JSON instead of CSV");
    args.addFlag("progress", "per-job progress on stderr");
    args.parse(argc, argv);

    std::uint32_t cores = static_cast<std::uint32_t>(
        args.getUnsigned("cores", std::numeric_limits<std::uint32_t>::max()));
    SystemConfig base = defaultConfig(cores);

    // Declare the sweep: every combination of these axis values
    // becomes one job, fixed at expansion time.
    SweepSpec spec(base);
    spec.llcBanks({1, 4})
        .policies({{"lru", PolicyKind::LRU, false},
                   {"mockingjay", PolicyKind::Mockingjay, false},
                   {"mockingjay+g", PolicyKind::Mockingjay, true}})
        .mixes({homogeneousMix("tpcc", cores),
                homogeneousMix("verilator", cores)});
    std::printf("sweep: %zu jobs\n", spec.jobCount());

    ExperimentContext ctx(base, args.getUnsigned("warmup"),
                          args.getUnsigned("instr"));
    SweepRunner runner(ctx);
    SweepOptions opts;
    opts.jobs = static_cast<unsigned>(
        args.getUnsigned("jobs", std::numeric_limits<unsigned>::max()));
    opts.progress = args.getFlag("progress");
    ResultsTable results = runner.run(spec, opts);

    std::printf("%s\n", args.getFlag("json")
                            ? results.toJson().c_str()
                            : results.toCsv().c_str());

    // Selector lookups: normalize one cell against its LRU baseline.
    double lru = results.value({{"banks", "1"},
                                {"policy", "lru"},
                                {"mix", "verilator"}},
                               "metric");
    double mjg = results.value({{"banks", "1"},
                                {"policy", "mockingjay+g"},
                                {"mix", "verilator"}},
                               "metric");
    std::printf("verilator: mockingjay+garibaldi vs lru = %+.2f%%\n",
                (mjg / lru - 1) * 100);
    return 0;
}
