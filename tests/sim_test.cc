/**
 * @file
 * Simulation-layer tests: system assembly, simulator determinism and
 * window accounting, metrics, the energy model, the characterization
 * monitors, the hierarchy's end-to-end behavior, and the stat contract
 * (each exported stat's window rule, with every gate off and on).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "garibaldi/garibaldi.hh"
#include "sim/energy.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/monitors.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"

namespace garibaldi
{
namespace
{

SystemConfig
tinyConfig(std::uint32_t cores = 2)
{
    SystemConfig cfg = defaultConfig(cores);
    cfg.coresPerL2 = 2;
    // Shrink for test speed; geometry stays power-of-two clean.
    cfg.l2Bytes = 256 * 1024;
    cfg.llcBytesPerCore = 192 * 1024;
    return cfg;
}

TEST(Metrics, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({1, 1, 1}), 1.0);
    EXPECT_NEAR(harmonicMean({1, 2}), 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({1, 0}), 0.0);
}

TEST(Metrics, GeometricMean)
{
    EXPECT_NEAR(geometricMean({2, 8}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geometricMean({5}), 5.0);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

TEST(Metrics, WeightedSpeedup)
{
    EXPECT_NEAR(weightedSpeedup({1.0, 2.0}, {2.0, 2.0}), 1.5, 1e-12);
    EXPECT_EXIT(weightedSpeedup({1.0}, {1.0, 2.0}),
                testing::ExitedWithCode(1), "");
}

TEST(System, RejectsMismatchedMix)
{
    SystemConfig cfg = tinyConfig(2);
    Mix m = homogeneousMix("tpcc", 3);
    EXPECT_EXIT({ System sys(cfg, m); }, testing::ExitedWithCode(1),
                "");
}

TEST(System, GaribaldiAttachedOnlyWhenEnabled)
{
    SystemConfig cfg = tinyConfig(2);
    Mix m = homogeneousMix("tpcc", 2);
    System without(cfg, m);
    EXPECT_EQ(without.garibaldi(), nullptr);
    cfg.garibaldiEnabled = true;
    System with(cfg, m);
    EXPECT_NE(with.garibaldi(), nullptr);
}

TEST(Simulator, RunsExactInstructionCounts)
{
    SystemConfig cfg = tinyConfig(2);
    System sys(cfg, homogeneousMix("noop", 2));
    Simulator sim(sys);
    SimResult r = sim.run(1000, 5000);
    ASSERT_EQ(r.cores.size(), 2u);
    for (const auto &c : r.cores) {
        EXPECT_EQ(c.instructions, 5000u);
        EXPECT_GT(c.cycles, 0u);
        EXPECT_GT(c.ipc, 0.0);
    }
}

TEST(Simulator, DeterministicAcrossRuns)
{
    SystemConfig cfg = tinyConfig(2);
    Mix m = homogeneousMix("tpcc", 2);
    System sys_a(cfg, m), sys_b(cfg, m);
    SimResult a = Simulator(sys_a).run(2000, 10000);
    SimResult b = Simulator(sys_b).run(2000, 10000);
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        EXPECT_EQ(a.cores[c].cycles, b.cores[c].cycles);
        EXPECT_EQ(a.cores[c].mispredicts, b.cores[c].mispredicts);
    }
    EXPECT_EQ(a.mem.get("llc.accesses"), b.mem.get("llc.accesses"));
}

TEST(Simulator, SeedChangesResults)
{
    SystemConfig cfg = tinyConfig(2);
    Mix m = homogeneousMix("tpcc", 2);
    System sys_a(cfg, m);
    cfg.seed = 99;
    System sys_b(cfg, m);
    SimResult a = Simulator(sys_a).run(2000, 10000);
    SimResult b = Simulator(sys_b).run(2000, 10000);
    EXPECT_NE(a.cores[0].cycles, b.cores[0].cycles);
}

TEST(Simulator, DetailedWindowStatsExcludeWarmup)
{
    SystemConfig cfg = tinyConfig(2);
    System sys(cfg, homogeneousMix("tpcc", 2));
    Simulator sim(sys);
    SimResult r = sim.run(20000, 2000);
    // The detailed window is short: LLC traffic must be a small slice
    // of the full run (which warmup dominated), proving subtraction.
    EXPECT_LT(r.mem.get("llc.accesses"), 100000.0);
    EXPECT_GE(r.mem.get("llc.accesses"), 0.0);
}

TEST(Simulator, WindowedGaribaldiRatiosAndGauges)
{
    // helper.coverage is a ratio and the threshold unit's readings are
    // gauges; both used to be windowed as differences of cumulative
    // values, which quickstart printed as negative nonsense.  Ratios
    // must now come from the windowed raw counters and gauges must
    // report the end-of-window value.
    SystemConfig cfg = tinyConfig(2);
    cfg.garibaldiEnabled = true;
    System sys(cfg, randomServerMix(7, 2));
    Simulator sim(sys);
    SimResult r = sim.run(20000, 5000);

    double h = r.garibaldi.get("helper.hits");
    double m = r.garibaldi.get("helper.misses");
    EXPECT_GT(h + m, 0.0);
    EXPECT_DOUBLE_EQ(r.garibaldi.get("helper.coverage"),
                     safeRate(h, h + m));
    EXPECT_GE(r.garibaldi.get("helper.coverage"), 0.0);
    EXPECT_LE(r.garibaldi.get("helper.coverage"), 1.0);
    // Gauges match the live module's current reading, not a delta.
    // The gauge set comes from the rule each stat was added with, not
    // a hand-maintained name list.
    StatSet live = sys.garibaldi()->stats();
    int gauges = 0;
    for (const auto &[name, value] : live.entries()) {
        if (live.windowRule(name) != WindowRule::KeepLast)
            continue;
        ++gauges;
        ASSERT_TRUE(r.garibaldi.has(name)) << name;
        EXPECT_DOUBLE_EQ(r.garibaldi.get(name), value) << name;
    }
    // threshold, color, last_pdmiss, last_llc_miss_rate at minimum.
    EXPECT_GE(gauges, 4);
    // threshold.color is a rotation index: always non-negative, which
    // the old differenced report was not.
    EXPECT_GE(r.garibaldi.get("threshold.color"), 0.0);
}

TEST(Simulator, WindowedBankRatesUseTheBanksOwnCounters)
{
    // addAll puts the "llc.bank1." prefix on a rate's raw names too,
    // so bank 1's windowed rates are rebuilt from bank 1's windowed
    // counters, not from the aggregate LLC's or another bank's.
    SystemConfig cfg = tinyConfig(2);
    cfg.llcBanks = 2;
    System sys(cfg, homogeneousMix("verilator", 2));
    SimResult r = Simulator(sys).run(20000, 10000);

    double hits = r.mem.get("llc.bank1.hits");
    double accesses = r.mem.get("llc.bank1.accesses");
    ASSERT_GT(accesses, 0.0);
    EXPECT_LT(accesses, r.mem.get("llc.accesses"));
    EXPECT_EQ(r.mem.windowRule("llc.bank1.hit_rate"),
              WindowRule::Recompute);
    EXPECT_DOUBLE_EQ(r.mem.get("llc.bank1.hit_rate"),
                     safeRate(hits, accesses));
    EXPECT_DOUBLE_EQ(r.mem.get("llc.bank1.instr_miss_rate"),
                     safeRate(r.mem.get("llc.bank1.instr_misses"),
                              r.mem.get("llc.bank1.instr_accesses")));
    EXPECT_DOUBLE_EQ(r.mem.get("llc.hit_rate"),
                     safeRate(r.mem.get("llc.hits"),
                              r.mem.get("llc.accesses")));
}

TEST(Simulator, CpiStackCoversAllCycles)
{
    SystemConfig cfg = tinyConfig(2);
    System sys(cfg, homogeneousMix("tpcc", 2));
    SimResult r = Simulator(sys).run(1000, 20000);
    for (const auto &c : r.cores) {
        // Every cycle is attributed: stack total ~= window cycles.
        // (Base rounding can lose at most one cycle per instruction
        // group; allow 2%.)
        double total = static_cast<double>(c.cpi.total());
        EXPECT_NEAR(total, static_cast<double>(c.cycles),
                    0.2 * c.cycles + 100);
    }
}

TEST(Simulator, ServerMixReachesLlcWithInstructions)
{
    SystemConfig cfg = tinyConfig(4);
    cfg.coresPerL2 = 2;
    System sys(cfg, homogeneousMix("verilator", 4));
    SimResult r = Simulator(sys).run(30000, 60000);
    double instr_ratio = r.mem.get("llc.instr_accesses") /
                         r.mem.get("llc.accesses");
    EXPECT_GT(instr_ratio, 0.03); // instruction traffic present
}

TEST(Simulator, SpecMixBarelyTouchesLlcWithInstructions)
{
    SystemConfig cfg = tinyConfig(2);
    System sys(cfg, homogeneousMix("bwaves", 2));
    SimResult r = Simulator(sys).run(30000, 60000);
    double instr_ratio = r.mem.get("llc.instr_accesses") /
                         std::max(1.0, r.mem.get("llc.accesses"));
    EXPECT_LT(instr_ratio, 0.02); // Fig. 3(b): ~0.3% for SPEC
}

TEST(Energy, DecomposesAndSums)
{
    SystemConfig cfg = tinyConfig(2);
    System sys(cfg, homogeneousMix("tpcc", 2));
    SimResult r = Simulator(sys).run(1000, 10000);
    EnergyBreakdown e = computeEnergy(r, cfg);
    EXPECT_GT(e.core, 0.0);
    EXPECT_GT(e.l1, 0.0);
    EXPECT_GT(e.staticLeakage, 0.0);
    EXPECT_NEAR(e.total(), e.core + e.l1 + e.l2 + e.llc + e.dram +
                               e.garibaldi + e.staticLeakage,
                1e-15);
    StatSet s = e.toStatSet();
    EXPECT_GT(s.get("total_j"), 0.0);
}

TEST(Energy, GaribaldiComponentOnlyWhenAttached)
{
    SystemConfig cfg = tinyConfig(2);
    System plain(cfg, homogeneousMix("tpcc", 2));
    SimResult r1 = Simulator(plain).run(1000, 5000);
    EXPECT_EQ(computeEnergy(r1, cfg).garibaldi, 0.0);
    cfg.garibaldiEnabled = true;
    System with(cfg, homogeneousMix("tpcc", 2));
    SimResult r2 = Simulator(with).run(1000, 5000);
    EXPECT_GT(computeEnergy(r2, cfg).garibaldi, 0.0);
}

TEST(Experiment, SoloIpcCachedAndPositive)
{
    ExperimentContext ctx(tinyConfig(2), 500, 3000);
    double a = ctx.soloIpc("tpcc");
    double b = ctx.soloIpc("tpcc");
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(Experiment, MetricUsesWeightedSpeedupForHetero)
{
    ExperimentContext ctx(tinyConfig(2), 500, 3000);
    Mix hetero = explicitMix("h", {"tpcc", "kafka"});
    SimResult r = ctx.run(ctx.baseConfig(), hetero);
    double m = ctx.metric(r, hetero);
    // Weighted speedup of 2 cores is on the order of the core count.
    EXPECT_GT(m, 0.1);
    EXPECT_LT(m, 4.0);
    Mix homog = homogeneousMix("tpcc", 2);
    SimResult r2 = ctx.run(ctx.baseConfig(), homog);
    EXPECT_DOUBLE_EQ(ctx.metric(r2, homog), r2.ipcHarmonicMean());
}

// --------------------------------------------------------------------
// Monitors
// --------------------------------------------------------------------

MemAccess
llcAccess(Addr paddr, bool instr, Addr pc = 0x400000)
{
    MemAccess a;
    a.paddr = paddr;
    a.isInstr = instr;
    a.pc = pc;
    return a;
}

TEST(ReuseDistanceMonitor, StackDistanceExact)
{
    ReuseDistanceMonitor mon(16, /*sample every set*/ 0);
    // Pattern in one set (set stride 16 lines): A B C A.
    Addr A = 0, B = 16 * 64, C = 32 * 64;
    mon.observe(llcAccess(A, false), false);
    mon.observe(llcAccess(B, false), false);
    mon.observe(llcAccess(C, false), false);
    mon.observe(llcAccess(A, false), false);
    // A's reuse saw 2 distinct intervening lines.
    EXPECT_DOUBLE_EQ(mon.dataMeanDistance(), 2.0);
}

TEST(ReuseDistanceMonitor, RepeatedAccessDistanceZero)
{
    ReuseDistanceMonitor mon(16, 0);
    mon.observe(llcAccess(0, true), false);
    mon.observe(llcAccess(0, true), false);
    mon.observe(llcAccess(0, true), false);
    EXPECT_DOUBLE_EQ(mon.instrMeanDistance(), 0.0);
}

TEST(ReuseDistanceMonitor, SeparatesInstrAndData)
{
    ReuseDistanceMonitor mon(16, 0);
    mon.observe(llcAccess(0, true), false);
    mon.observe(llcAccess(16 * 64, false), false);
    mon.observe(llcAccess(0, true), false);        // instr d=1
    mon.observe(llcAccess(16 * 64, false), false); // data d=1
    EXPECT_EQ(mon.instrHistogram().count(), 1u);
    EXPECT_EQ(mon.dataHistogram().count(), 1u);
}

TEST(ReuseDistanceMonitor, WindowedP90KeepsEndOfWindowReading)
{
    // Regression for the windowing bug this PR fixed: the p90
    // landmarks of the cumulative reuse-distance histograms used to
    // be *subtracted* across window snapshots like counters, so any
    // window after the first reported a meaningless difference of
    // two percentiles.  They are added as gauges, so a window keeps
    // the end-of-window reading.
    ReuseDistanceMonitor mon(16, /*sample every set*/ 0);
    Addr stride = 16 * 64; // one set apart: all lines share set 0
    auto line = [&](int i) { return static_cast<Addr>(i) * stride; };

    // Window 1: A B A B -> two reuse samples of distance 1.
    for (int rep = 0; rep < 2; ++rep)
        for (int i = 0; i < 2; ++i)
            mon.observe(llcAccess(line(i), false), false);
    StatSet w1_live = mon.stats();
    StatSet w1 = windowedStatDelta(w1_live, StatSet());
    EXPECT_DOUBLE_EQ(w1.get("data_distance_p90"), 1.0);
    EXPECT_DOUBLE_EQ(w1.get("data_samples"), 2.0);

    // Window 2: ten rounds of A C D E F G -> ten samples of
    // distance 5 push the cumulative p90 up to 5.
    for (int rep = 0; rep < 10; ++rep) {
        mon.observe(llcAccess(line(0), false), false);
        for (int i = 2; i <= 6; ++i)
            mon.observe(llcAccess(line(i), false), false);
    }
    StatSet w2_live = mon.stats();
    StatSet w2 = windowedStatDelta(w2_live, w1_live);

    // The quantile keeps the end-of-window reading...
    EXPECT_DOUBLE_EQ(w2.get("data_distance_p90"),
                     w2_live.get("data_distance_p90"));
    // ...which is NOT the difference of the two snapshots (the old
    // counter treatment would have reported p90(w2) - p90(w1) here).
    EXPECT_NE(w2.get("data_distance_p90"),
              w2_live.get("data_distance_p90") -
                  w1_live.get("data_distance_p90"));
    // The sample counters still window by subtraction.
    EXPECT_DOUBLE_EQ(w2.get("data_samples"),
                     w2_live.get("data_samples") -
                         w1_live.get("data_samples"));
}

// --------------------------------------------------------------------
// Stat contract: the window rule of every exported stat, checked
// against what every producer exports knobs off and with every gate on.
// --------------------------------------------------------------------

/** Every set each stat producer exports after one short run of @p cfg. */
std::vector<StatSet>
exportedStatSets(const SystemConfig &cfg, bool with_monitors)
{
    System sys(cfg, randomServerMix(7, cfg.numCores));
    ReuseDistanceMonitor reuse(sys.hierarchy().llc().totalSets(), 0);
    LineFrequencyMonitor freq;
    PairingMonitor pairing;
    if (with_monitors) {
        sys.hierarchy().addLlcListener(&reuse);
        sys.hierarchy().addLlcListener(&freq);
        sys.hierarchy().addLlcListener(&pairing);
    }
    SimResult r = Simulator(sys).run(2000, 5000);

    std::vector<StatSet> sets = {
        r.mem, r.garibaldi, r.tlb, r.obs,
        computeEnergy(r, cfg).toStatSet(),
        sys.core(0).branchPredictor().stats()};
    if (with_monitors) {
        sets.push_back(reuse.stats());
        sets.push_back(freq.stats());
        sets.push_back(pairing.stats());
    }
    if (sys.garibaldi())
        sets.push_back(sys.garibaldi()->helperTable(0).stats());
    return sets;
}

/** Telemetry output of the all-gates-on run; removed after it. */
const char *const kContractTelemetry = "stat_contract.telemetry.jsonl";

/** Every default-off model and subsystem switched on. */
SystemConfig
allGatesOnConfig()
{
    SystemConfig cfg = tinyConfig(2);
    cfg.llcBanks = 2;
    cfg.llcBankServiceCycles = 4; // contention model
    cfg.dram.rowBits = 7;
    cfg.dram.turnaroundCycles = 12;
    cfg.dram.refreshIntervalCycles = 11700;
    cfg.dram.refreshPenaltyCycles = 885;
    cfg.dramFedLlcMshrs = true;
    cfg.garibaldiEnabled = true;
    cfg.obs.traceSample = 4; // histograms only: no trace file
    cfg.obs.telemetryWindow = 5000;
    cfg.obs.telemetryOut = kContractTelemetry;
    return cfg;
}

/**
 * Leaf names (after the last '.') exported only when their model is
 * on: the bank contention model's queue books, the DRAM row, timing,
 * turnaround and refresh models.
 */
const std::set<std::string> kGatedLeaves = {
    "bank_reservations", "bank_backfills", "queued_accesses",
    "tag_queue_cycles", "data_queue_cycles", "queue_cycles",
    "mshr_stall_cycles",
    "row_hits", "row_misses", "row_conflicts", "row_accesses",
    "row_hit_rate",
    "row_hit_reads", "row_hit_lat_cycles", "avg_row_hit_latency",
    "row_hit_lat_p50", "row_hit_lat_p95", "row_hit_lat_p99",
    "row_miss_reads", "row_miss_lat_cycles", "avg_row_miss_latency",
    "row_miss_lat_p50", "row_miss_lat_p95", "row_miss_lat_p99",
    "row_conflict_reads", "row_conflict_lat_cycles",
    "avg_row_conflict_latency", "row_conflict_lat_p50",
    "row_conflict_lat_p95", "row_conflict_lat_p99",
    "read_lat_cycles", "avg_read_latency",
    "turnarounds", "turnaround_cycles",
    "refresh_blocked", "refresh_stall_cycles"};

/** Full names exported only by a banked LLC or by telemetry. */
const std::set<std::string> kGatedNames = {
    "llc.banks", "obs.telemetry.windows"};

std::string
leafOf(const std::string &name)
{
    return name.substr(name.rfind('.') + 1);
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(StatContract, RulesMatchWhatProducersExport)
{
    std::vector<StatSet> off = exportedStatSets(tinyConfig(2), false);
    std::vector<StatSet> on = exportedStatSets(allGatesOnConfig(), true);
    std::remove(kContractTelemetry);

    // With every knob off, no gated stat appears; with every gate
    // on, each gated name is exported (so the lists above stay true).
    std::set<std::string> on_leaves, on_names;
    for (const StatSet &s : on) {
        for (const auto &[name, value] : s.entries()) {
            on_leaves.insert(leafOf(name));
            on_names.insert(name);
        }
    }
    for (const StatSet &s : off) {
        for (const auto &[name, value] : s.entries()) {
            EXPECT_FALSE(kGatedLeaves.count(leafOf(name)) ||
                         kGatedNames.count(name))
                << name << " exported with its model off";
        }
    }
    for (const std::string &leaf : kGatedLeaves)
        EXPECT_TRUE(on_leaves.count(leaf)) << "never exported: " << leaf;
    for (const std::string &name : kGatedNames)
        EXPECT_TRUE(on_names.count(name)) << "never exported: " << name;

    // The spelling agrees with the rule: *_rate and avg_* entries
    // are recomputed per window, quantile suffixes keep the
    // end-of-window reading (never differenced).
    // threshold.last_llc_miss_rate is an EMA-smoothed point-in-time
    // reading of the miss rate, not a counter-derived ratio to
    // recompute per window, so it stays a gauge.
    const std::set<std::string> kSuffixRuleExempt = {
        "threshold.last_llc_miss_rate"};
    std::size_t rates = 0, quantiles = 0;
    for (const std::vector<StatSet> *sets : {&off, &on}) {
        for (const StatSet &s : *sets) {
            for (const auto &[name, value] : s.entries()) {
                if (kSuffixRuleExempt.count(name))
                    continue;
                std::string leaf = leafOf(name);
                if (endsWith(leaf, "_rate") || leaf.rfind("avg_", 0) == 0) {
                    ++rates;
                    EXPECT_EQ(s.windowRule(name), WindowRule::Recompute)
                        << name;
                }
                for (const char *sfx : {"_p50", "_p90", "_p95", "_p99"}) {
                    if (endsWith(leaf, sfx)) {
                        ++quantiles;
                        EXPECT_EQ(s.windowRule(name), WindowRule::KeepLast)
                            << name;
                    }
                }
            }
        }
    }
    EXPECT_GT(rates, 0u);
    EXPECT_GT(quantiles, 0u);
}

TEST(LineFrequencyMonitor, CountsPerLineAndRatio)
{
    LineFrequencyMonitor mon;
    for (int i = 0; i < 6; ++i)
        mon.observe(llcAccess(0x1000, false), true);
    mon.observe(llcAccess(0x2000, false), true);
    mon.observe(llcAccess(0x8000, true), false);
    EXPECT_DOUBLE_EQ(mon.dataAccessesPerLine(), 3.5); // 7 over 2 lines
    EXPECT_DOUBLE_EQ(mon.instrAccessesPerLine(), 1.0);
    EXPECT_NEAR(mon.instrAccessRatio(), 1.0 / 8.0, 1e-12);
}

TEST(PairingMonitor, SplitsMissRateByDataHotness)
{
    PairingMonitor mon;
    // Instruction line H: data always hits; line C: data misses.
    Addr pc_hot = 0x1000, pc_cold = 0x2000;
    for (int i = 0; i < 10; ++i) {
        mon.observe(llcAccess(0x700000, true, pc_hot), i > 7);
        mon.observe(llcAccess(0x900000, false, pc_hot), true);
        mon.observe(llcAccess(0x710000, true, pc_cold), true);
        mon.observe(llcAccess(0x910000, false, pc_cold), false);
    }
    // pc_hot's instruction line missed 8/10; pc_cold's missed 0/10.
    EXPECT_NEAR(mon.instrMissRateDataHot(), 0.8, 1e-9);
    EXPECT_NEAR(mon.instrMissRateDataCold(), 0.0, 1e-9);
}

TEST(PairingMonitor, SharingDegreeCountsDistinctConsecutive)
{
    PairingMonitor mon;
    Addr dl = 0x900000;
    mon.observe(llcAccess(dl, false, 0x1000), true);
    mon.observe(llcAccess(dl, false, 0x2000), true);
    mon.observe(llcAccess(dl, false, 0x3000), true);
    EXPECT_DOUBLE_EQ(mon.dataSharingDegree(), 3.0);
}

TEST(Monitors, AttachToHierarchy)
{
    SystemConfig cfg = tinyConfig(2);
    Mix m = homogeneousMix("verilator", 2);
    System sys(cfg, m);
    LineFrequencyMonitor freq;
    sys.hierarchy().addLlcListener(&freq);
    Simulator(sys).run(5000, 20000);
    EXPECT_GT(freq.instrAccessRatio(), 0.0);
    EXPECT_GT(freq.stats().get("distinct_data_lines"), 0.0);
}

} // namespace
} // namespace garibaldi
