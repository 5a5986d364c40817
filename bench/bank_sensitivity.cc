/**
 * @file
 * Bank-count / interleave sensitivity (ROADMAP item, beyond the
 * paper's figures): sweeps the banked LLC's bank count and interleave
 * shift over many-core (16-core; 32-core with --full) random server
 * mixes under Mockingjay+Garibaldi, reporting the §6 weighted-speedup
 * metric per point and the change relative to the monolithic
 * (banks=1, shift=0) LLC of the same core count.
 *
 * With --contention the per-bank queuing model is enabled
 * (llcBankServiceCycles/llcBankPorts, --svc/--ports): each point
 * additionally reports the average bank-queuing delay per bank-array
 * reservation (a demand access makes 1-3 reservations: tag probe,
 * plus a data-array read on hits or write on fills), which falls as
 * banks spread the same traffic over more tag/data slots — this is
 * the knob-that-moves-the-metric mode; without the flag, output is
 * byte-identical to the contention-free model.
 *
 * With --dram-sweep the DRAM channel count becomes the swept axis
 * (1/2/4; banks and shift pinned to one representative point): each
 * point reports the average DRAM queue delay per access — which falls
 * monotonically as channels spread the same fill traffic — and the
 * weighted speedup relative to the 2-channel Table 1 baseline.
 * --dram-mshr turns on DRAM-fed LLC MSHR occupancy, so the mode
 * exercises every memory-contention knob.
 *
 * With --dram-timing the first-order DDR5 timing model is enabled
 * (row-buffer split via --row-bits, read<->write turnaround via
 * --turnaround, tREFI/tRFC refresh via --refresh-interval/
 * --refresh-penalty) and swept over the same channel axis (1/2/4):
 * each point reports the row-buffer hit rate and the average DRAM
 * read latency overall and per row leg — strictly ordered hit < miss
 * < conflict — aggregated across mixes from summed raw counters.
 *
 * This is the flagship sweep-engine bench: the full cores x banks x
 * shift x mix cross product expands up front and fans out over --jobs
 * worker threads; output is byte-identical for any --jobs value.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "sim/metrics.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Bank sensitivity: LLC banks x interleave shift on "
                   "many-core server mixes");
    BenchArgs::addTo(args);
    args.addInt("mixes", 2, "random server mixes per core count");
    args.addFlag("contention",
                 "enable the per-bank queuing/contention model");
    args.addInt("svc", 4,
                "bank service cycles per tag/data slot (with "
                "--contention)");
    args.addInt("ports", 1, "ports per bank array (with --contention)");
    args.addFlag("dram-sweep",
                 "sweep DRAM channels (1/2/4) instead of banks x shift");
    args.addFlag("dram-mshr",
                 "DRAM-fed LLC MSHR occupancy (hold bank MSHRs until "
                 "the channel's fill completion)");
    args.addFlag("dram-timing",
                 "sweep DRAM channels (1/2/4) with the DDR5 timing "
                 "model on (row-buffer split, turnaround, refresh)");
    args.addInt("row-bits", 7,
                "line-address bits per DRAM row (with --dram-timing; "
                "7 = 8 KB rows)");
    args.addInt("turnaround", 12,
                "read<->write bus turnaround cycles (with "
                "--dram-timing)");
    args.addInt("refresh-interval", 11700,
                "cycles between refresh windows, tREFI (with "
                "--dram-timing)");
    args.addInt("refresh-penalty", 885,
                "cycles a channel blocks per refresh window, tRFC "
                "(with --dram-timing)");
    addObsArgs(args);
    args.addString("obs-dir", "",
                   "per-job observability artifact directory "
                   "(jobNNNN.trace.json / jobNNNN.telemetry.jsonl)");
    args.parse(argc, argv);
    BenchArgs b = BenchArgs::from(args);

    // A sweep runs many Systems; the single-file output flags cannot
    // name its artifacts.  Both die with a pointer at --obs-dir, and
    // the parallel case calls out the file race explicitly.
    if (args.wasSet("trace-out")) {
        if (b.jobs != 1)
            fatal("--trace-out with --jobs ", b.jobs,
                  " (0 = hardware concurrency) would have parallel "
                  "workers race one trace file; use --obs-dir DIR "
                  "for per-job artifacts");
        fatal("bank_sensitivity runs a sweep (one System per job); "
              "--trace-out names a single file — use --obs-dir DIR "
              "for per-job artifacts");
    }
    if (args.wasSet("telemetry-out"))
        fatal("bank_sensitivity runs a sweep (one System per job); "
              "--telemetry-out names a single file — use --obs-dir "
              "DIR for per-job artifacts");
    std::string obs_dir = args.getString("obs-dir");
    ObsConfig obs_template = obsSweepTemplateFromArgs(args);
    if (!obs_dir.empty() && !obs_template.anyOn())
        fatal("--obs-dir needs --trace-sample N and/or "
              "--telemetry-window N; no obs knob is on");
    if (obs_dir.empty() && obs_template.anyOn())
        fatal("sweep observability writes per-job artifacts; add "
              "--obs-dir DIR");
    int num_mixes = static_cast<int>(args.getInt("mixes"));
    if (b.full)
        num_mixes = std::max(num_mixes, 4);
    bool contention = args.getFlag("contention");
    bool dram_sweep = args.getFlag("dram-sweep");
    bool dram_timing = args.getFlag("dram-timing");
    if (dram_sweep && dram_timing)
        fatal("--dram-sweep and --dram-timing are separate modes; "
              "pick one");

    SystemConfig base = b.config();
    base.dramFedLlcMshrs = args.getFlag("dram-mshr");
    if (dram_timing) {
        // Contradictory knob combos die early with a clear message
        // (the PR-3 "--contention --svc 0" pattern); the Dram
        // constructor double-checks the same invariants for
        // programmatic users.
        std::uint64_t row_bits = args.getUnsigned("row-bits");
        Cycle turn = args.getUnsigned("turnaround");
        Cycle refi = args.getUnsigned("refresh-interval");
        Cycle rfc = args.getUnsigned("refresh-penalty");
        if (row_bits == 0)
            fatal("--dram-timing needs --row-bits > 0 (0 disables the "
                  "row-buffer split, the mode's headline leg)");
        if (rfc > 0 && refi == 0)
            fatal("--refresh-penalty > 0 needs --refresh-interval > 0 "
                  "(a refresh blast with no tREFI period never fires)");
        if (refi > 0 && rfc >= refi)
            fatal("--refresh-penalty (tRFC) must be smaller than "
                  "--refresh-interval (tREFI); the channel would "
                  "never unblock");
        base.dram.rowBits = static_cast<std::uint32_t>(row_bits);
        base.dram.turnaroundCycles = turn;
        base.dram.refreshIntervalCycles = refi;
        base.dram.refreshPenaltyCycles = rfc;
    }
    if (contention) {
        Cycle svc = args.getUnsigned("svc");
        std::uint64_t ports = args.getUnsigned("ports");
        if (svc == 0)
            fatal("--contention needs --svc > 0 (0 disables the model "
                  "and its queue stats)");
        if (ports == 0)
            fatal("--contention needs --ports > 0");
        base.llcBankServiceCycles = svc;
        base.llcBankPorts = static_cast<std::uint32_t>(ports);
    }

    std::vector<std::uint32_t> core_counts = {16};
    if (b.full)
        core_counts.push_back(32);
    // The DRAM modes pin banking to one representative point (4 banks,
    // per-line interleave) so the channel axis is the only mover.
    bool dram_mode = dram_sweep || dram_timing;
    const std::vector<std::uint32_t> bank_counts =
        dram_mode ? std::vector<std::uint32_t>{4}
                  : std::vector<std::uint32_t>{1, 2, 4, 8};
    std::vector<std::uint32_t> shifts = {0};
    if (b.full && !dram_mode)
        shifts.push_back(2);
    const std::vector<std::uint32_t> dram_channels = {1, 2, 4};

    printBenchHeader(
        "Bank sensitivity",
        dram_timing
            ? "row-buffer hit rate + avg DRAM read latency per row "
              "leg across channel counts, many-core server mixes"
            : dram_sweep
                ? "weighted speedup + avg DRAM queue delay across "
                  "channel counts, many-core server mixes"
                : contention
                    ? "weighted speedup + avg bank queuing delay "
                      "across LLC banks x interleave shift, "
                      "many-core server mixes"
                    : "weighted speedup across LLC banks x "
                      "interleave shift, many-core server mixes",
        base, b);

    // Axes apply in declaration order, so the mix axis (drawn from
    // config.numCores) sees the core count chosen by the cores axis.
    SweepSpec spec(base);
    spec.coreCounts(core_counts)
        .llcBanks(bank_counts)
        .llcBankInterleaveShift(shifts);
    if (dram_mode)
        spec.dramChannels(dram_channels);
    spec.policies({{"mockingjay+g", PolicyKind::Mockingjay, true}})
        .randomServerMixes(b.seed + 500, num_mixes);

    ExperimentContext ctx(base, b.warmup, b.detailed);
    SweepRunner runner(ctx);
    SweepOptions opts = b.sweepOptions();
    if (!obs_dir.empty()) {
        opts.obsDir = obs_dir;
        opts.obsTemplate = obs_template;
    }
    if (contention) {
        // Raw counters per job so table cells can aggregate across
        // mixes as summed-cycles / summed-reservations (never a mean
        // of per-mix rates — see safeRate in sim/metrics.hh), plus the
        // per-job rate for CSV consumers.
        opts.extraMetrics.push_back(
            {"queue_cycles", [](const SimResult &r, const SweepJob &) {
                 return r.mem.get("llc.queue_cycles");
             }});
        opts.extraMetrics.push_back(
            {"bank_reservations",
             [](const SimResult &r, const SweepJob &) {
                 return r.mem.get("llc.bank_reservations");
             }});
        opts.extraMetrics.push_back(
            {"queue_delay", [](const SimResult &r, const SweepJob &) {
                 return safeRate(r.mem.get("llc.queue_cycles"),
                                 r.mem.get("llc.bank_reservations"));
             }});
    }
    if (dram_sweep) {
        // Raw windowed counters per job so cells aggregate across
        // mixes as summed-cycles / summed-accesses (same safeRate
        // discipline as the bank columns), plus the per-job rate for
        // CSV consumers.
        opts.extraMetrics.push_back(
            {"dram_queued_cycles",
             [](const SimResult &r, const SweepJob &) {
                 return r.mem.get("dram.queued_cycles");
             }});
        opts.extraMetrics.push_back(
            {"dram_accesses", [](const SimResult &r, const SweepJob &) {
                 return r.mem.get("dram.reads") +
                        r.mem.get("dram.writes");
             }});
        opts.extraMetrics.push_back(
            {"dram_queue_delay",
             [](const SimResult &r, const SweepJob &) {
                 return r.mem.get("dram.avg_queue_delay");
             }});
    }
    if (dram_timing) {
        // Raw windowed counters per job so table cells aggregate
        // across mixes as summed-counter ratios (the safeRate
        // discipline of sim/metrics.hh; never a mean of per-mix
        // rates); the CSV carries the same raw columns.
        for (const char *name :
             {"row_hits", "row_accesses", "row_hit_lat_cycles",
              "row_hit_reads", "row_miss_lat_cycles", "row_miss_reads",
              "row_conflict_lat_cycles", "row_conflict_reads",
              "read_lat_cycles", "reads"}) {
            std::string stat = std::string("dram.") + name;
            opts.extraMetrics.push_back(
                {name, [stat](const SimResult &r, const SweepJob &) {
                     return r.mem.get(stat);
                 }});
        }
    }
    ResultsTable results = runner.run(spec, opts);

    if (dram_timing) {
        TablePrinter t({"cores", "dramch", "geomean_metric",
                        "row_hit_rate", "avg_read_lat", "avg_hit_lat",
                        "avg_miss_lat", "avg_conflict_lat"});
        for (std::uint32_t cores : core_counts) {
            for (std::uint32_t ch : dram_channels) {
                std::vector<double> vals;
                double hits = 0, accesses = 0;
                double read_cycles = 0, reads = 0;
                double leg_cycles[3] = {0, 0, 0};
                double leg_reads[3] = {0, 0, 0};
                static const char *const kLeg[3] = {"hit", "miss",
                                                    "conflict"};
                for (int i = 0; i < num_mixes; ++i) {
                    CoordSelector sel{
                        {"cores", std::to_string(cores)},
                        {"dramch", std::to_string(ch)},
                        {"mix", "rnd" + std::to_string(i)}};
                    vals.push_back(results.value(sel, "metric"));
                    // determinism-lint: allow(float-counter) fixed-order report sum over the double-typed results table
                    hits += results.value(sel, "row_hits");
                    accesses += results.value(sel, "row_accesses");
                    // determinism-lint: allow(float-counter) fixed-order report sum over the double-typed results table
                    read_cycles += results.value(sel, "read_lat_cycles");
                    reads += results.value(sel, "reads");
                    for (int leg = 0; leg < 3; ++leg) {
                        std::string p = std::string("row_") + kLeg[leg];
                        leg_cycles[leg] +=
                            results.value(sel, p + "_lat_cycles");
                        leg_reads[leg] +=
                            results.value(sel, p + "_reads");
                    }
                }
                t.addRow({std::to_string(cores), std::to_string(ch),
                          TablePrinter::num(geometricMean(vals), 4),
                          TablePrinter::num(safeRate(hits, accesses),
                                            4),
                          TablePrinter::num(
                              safeRate(read_cycles, reads), 4),
                          TablePrinter::num(
                              safeRate(leg_cycles[0], leg_reads[0]), 4),
                          TablePrinter::num(
                              safeRate(leg_cycles[1], leg_reads[1]), 4),
                          TablePrinter::num(safeRate(leg_cycles[2],
                                                     leg_reads[2]),
                                            4)});
            }
        }
        emitTable(t, b.csv);
        std::printf("Expected shape: the device legs order strictly "
                    "hit < miss < conflict (baseLatency/3, 2/3, 3/3 "
                    "by construction; queue delay is reported "
                    "orthogonally), row_hit_rate tracks the "
                    "workload's row locality as hash-interleaved "
                    "channels split each row's lines, and "
                    "avg_read_lat (queue + device) falls as channels "
                    "drain queues in parallel and rises wherever the "
                    "hit rate collapses.\n");
        if (b.csv)
            std::printf("%s", results.toCsv().c_str());
        return 0;
    }

    if (dram_sweep) {
        TablePrinter t({"cores", "dramch", "geomean_metric", "vs_2ch",
                        "avg_dram_queue_delay"});
        for (std::uint32_t cores : core_counts) {
            for (std::uint32_t ch : dram_channels) {
                std::vector<double> vals, ratios;
                double cycles_sum = 0, accesses_sum = 0;
                for (int i = 0; i < num_mixes; ++i) {
                    CoordSelector sel{
                        {"cores", std::to_string(cores)},
                        {"dramch", std::to_string(ch)},
                        {"mix", "rnd" + std::to_string(i)}};
                    CoordSelector table1{
                        {"cores", std::to_string(cores)},
                        {"dramch", "2"},
                        {"mix", "rnd" + std::to_string(i)}};
                    double v = results.value(sel, "metric");
                    vals.push_back(v);
                    ratios.push_back(
                        v / results.value(table1, "metric"));
                    // determinism-lint: allow(float-counter) fixed-order report sum over the double-typed results table
                    cycles_sum +=
                        results.value(sel, "dram_queued_cycles");
                    accesses_sum += results.value(sel, "dram_accesses");
                }
                t.addRow({std::to_string(cores), std::to_string(ch),
                          TablePrinter::num(geometricMean(vals), 4),
                          TablePrinter::pct(geometricMean(ratios) - 1,
                                            2),
                          TablePrinter::num(
                              safeRate(cycles_sum, accesses_sum), 4)});
            }
        }
        emitTable(t, b.csv);
        std::printf("Expected shape: the same fill traffic spreads "
                    "over more memory channels as dramch grows, so "
                    "avg_dram_queue_delay falls monotonically 1->2->4 "
                    "and weighted speedup rises over the 1-channel "
                    "point (vs_2ch is relative to the Table 1 "
                    "2-channel baseline).\n");
        if (b.csv)
            std::printf("%s", results.toCsv().c_str());
        return 0;
    }

    std::vector<std::string> cols = {"cores", "banks", "shift",
                                     "geomean_metric", "vs_monolithic"};
    if (contention)
        cols.push_back("avg_queue_delay");
    TablePrinter t(cols);
    for (std::uint32_t cores : core_counts) {
        for (std::uint32_t banks : bank_counts) {
            for (std::uint32_t shift : shifts) {
                std::vector<double> vals, ratios;
                double cycles_sum = 0, reservations_sum = 0;
                for (int i = 0; i < num_mixes; ++i) {
                    CoordSelector sel{
                        {"cores", std::to_string(cores)},
                        {"banks", std::to_string(banks)},
                        {"shift", std::to_string(shift)},
                        {"mix", "rnd" + std::to_string(i)}};
                    double v = results.value(sel, "metric");
                    CoordSelector mono{
                        {"cores", std::to_string(cores)},
                        {"banks", "1"},
                        {"shift", "0"},
                        {"mix", "rnd" + std::to_string(i)}};
                    vals.push_back(v);
                    ratios.push_back(v /
                                     results.value(mono, "metric"));
                    if (contention) {
                        // determinism-lint: allow(float-counter) fixed-order report sum over the double-typed results table
                        cycles_sum += results.value(sel, "queue_cycles");
                        reservations_sum +=
                            results.value(sel, "bank_reservations");
                    }
                }
                std::vector<std::string> row = {
                    std::to_string(cores),
                    std::to_string(banks),
                    std::to_string(shift),
                    TablePrinter::num(geometricMean(vals), 4),
                    TablePrinter::pct(geometricMean(ratios) - 1, 2)};
                if (contention)
                    row.push_back(TablePrinter::num(
                        safeRate(cycles_sum, reservations_sum), 4));
                t.addRow(row);
            }
        }
    }
    emitTable(t, b.csv);
    if (contention) {
        std::printf("Expected shape: the same LLC traffic spreads over "
                    "more tag/data slots as banks grow, so "
                    "avg_queue_delay falls monotonically 1->2->4->8 "
                    "and the queuing loss in vs_monolithic shrinks; "
                    "shift moves conflict clustering between banks.\n");
    } else {
        std::printf("Expected shape: banking is performance-neutral on "
                    "the hit/miss path (same sets, interleaved), so "
                    "vs_monolithic stays ~0%% — the win is per-bank "
                    "parallelism headroom; shift moves conflict "
                    "distribution between banks.\n");
    }
    if (b.csv) {
        // Machine-readable companion for plotting / CI artifacts.
        std::printf("%s", results.toCsv().c_str());
    }
    return 0;
}
