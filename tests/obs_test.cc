/**
 * @file
 * Observability subsystem tests: histogram percentile pins, tracer
 * ring/sampling mechanics, the windowing discipline for quantile
 * gauges, knob validation fatals, trace JSON well-formedness, the
 * zero-overhead-when-off contract (obs on vs off leaves every
 * simulation stat byte-identical), telemetry window invariants, and
 * sweep per-job artifact determinism across --jobs values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/histogram.hh"
#include "common/json.hh"
#include "obs/obs.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "sweep/sweep_runner.hh"
#include "sweep/sweep_spec.hh"

namespace garibaldi
{
namespace
{

SystemConfig
tinyConfig(std::uint32_t cores = 2)
{
    SystemConfig cfg = defaultConfig(cores);
    cfg.coresPerL2 = 2;
    cfg.l2Bytes = 256 * 1024;
    cfg.llcBytesPerCore = 192 * 1024;
    return cfg;
}

ObsConfig
tracingConfig(std::uint64_t sample = 1, std::uint64_t buf = 4096)
{
    ObsConfig obs;
    obs.traceSample = sample;
    obs.traceBufRecords = buf;
    return obs;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---- satellite: percentile export on the shared histogram ----------

TEST(HistogramQuantiles, PinnedPercentiles)
{
    Histogram h(1, 200);
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.add(v);
    // percentile() returns the lower edge of the first bucket whose
    // cumulative count exceeds floor(p * total).
    EXPECT_EQ(h.percentile(0.5), 51u);
    EXPECT_EQ(h.percentile(0.95), 96u);
    EXPECT_EQ(h.percentile(0.99), 100u);
    QuantileSummary q = h.quantiles();
    EXPECT_EQ(q.count, 100u);
    EXPECT_DOUBLE_EQ(q.mean, 50.5);
    EXPECT_EQ(q.p50, 51u);
    EXPECT_EQ(q.p90, 91u);
    EXPECT_EQ(q.p95, 96u);
    EXPECT_EQ(q.p99, 100u);
    EXPECT_EQ(q.max, 100u);
}

TEST(HistogramQuantiles, EmptyAndQuantized)
{
    Histogram h(8, 4);
    EXPECT_EQ(h.quantiles().count, 0u);
    EXPECT_EQ(h.quantiles().p99, 0u);
    h.add(13);
    // One sample in bucket [8,16): every landmark is that bucket's
    // lower edge; max stays exact.
    QuantileSummary q = h.quantiles();
    EXPECT_EQ(q.p50, 8u);
    EXPECT_EQ(q.p99, 8u);
    EXPECT_EQ(q.max, 13u);
}

// ---- windowing discipline for quantile gauges ----------------------

TEST(Metrics, QuantileStatsAreGauges)
{
    StatSet before, after;
    before.add("hits", 10);
    before.addGauge("lat_p99", 200);
    after.add("hits", 25);
    after.addGauge("lat_p99", 170);
    EXPECT_EQ(after.windowRule("hits"), WindowRule::Subtract);
    EXPECT_EQ(after.windowRule("lat_p99"), WindowRule::KeepLast);
    StatSet d = windowedStatDelta(after, before);
    EXPECT_DOUBLE_EQ(d.get("hits"), 15.0);
    // Percentiles of a cumulative histogram cannot be differenced:
    // the window keeps the end-of-window reading.
    EXPECT_DOUBLE_EQ(d.get("lat_p99"), 170.0);
    EXPECT_EQ(d.windowRule("lat_p99"), WindowRule::KeepLast);
}

TEST(Metrics, EveryQuantileSuffixWindowsKeepLast)
{
    // The landmarks every QuantileSummary producer exports.
    int n = 0;
    for (const char *sfx : {"_p50", "_p90", "_p95", "_p99"}) {
        ++n;
        std::string name = std::string("sweep") + sfx;
        StatSet before, after;
        before.addGauge(name, 40.0);
        after.addGauge(name, 30.0);
        StatSet d = windowedStatDelta(after, before);
        // Keep-last: the end-of-window reading survives even when it
        // is *smaller* than the previous snapshot (a subtraction
        // would have produced -10 here).
        EXPECT_DOUBLE_EQ(d.get(name), 30.0) << name;
    }
    EXPECT_EQ(n, 4) << "_p50/_p90/_p95/_p99 is the canonical set";
}

// ---- knob validation ------------------------------------------------

TEST(ObsConfigDeath, OutputWithoutRateDies)
{
    ObsConfig obs;
    obs.traceOut = "x.json";
    EXPECT_EXIT({ obs.validate(); }, testing::ExitedWithCode(1),
                "--trace-out needs --trace-sample");
}

TEST(ObsConfigDeath, ZeroRingDies)
{
    ObsConfig obs = tracingConfig(4, 0);
    EXPECT_EXIT({ obs.validate(); }, testing::ExitedWithCode(1),
                "non-zero trace ring");
}

TEST(ObsConfigDeath, TelemetryOutWithoutWindowDies)
{
    ObsConfig obs;
    obs.telemetryOut = "x.jsonl";
    EXPECT_EXIT({ obs.validate(); }, testing::ExitedWithCode(1),
                "--telemetry-out needs --telemetry-window");
}

TEST(ObsConfigDeath, WindowWithoutSinkDies)
{
    ObsConfig obs;
    obs.telemetryWindow = 1000;
    EXPECT_EXIT({ obs.validate(); }, testing::ExitedWithCode(1),
                "--telemetry-window needs --telemetry-out");
}

TEST(ObsConfigDeath, SubsystemRejectsAllOff)
{
    // The ctor re-validates, so a programmatically built config obeys
    // the same invariants the CLI enforces.
    EXPECT_EXIT({ ObsSubsystem obs(ObsConfig{}, 2); },
                testing::ExitedWithCode(1), "every knob off");
}

// ---- tracer mechanics ----------------------------------------------

Transaction
fakeTxn(CoreId core, Cycle issued, bool instr = false)
{
    Transaction txn;
    txn.req.core = core;
    txn.req.isInstr = instr;
    txn.issued = issued;
    txn.lineAddr = 0x1000 + issued * 64;
    txn.l1Cycles = 3;
    txn.dramCycles = issued % 7 == 0 ? 100 : 0;
    return txn;
}

TEST(Tracer, SamplesOneInNPerCore)
{
    ObsConfig obs = tracingConfig(4, 64);
    Tracer t(obs, 2);
    t.setMeasuring(true);
    for (Cycle i = 0; i < 40; ++i) {
        t.onTransaction(fakeTxn(0, 100 + i));
        t.onTransaction(fakeTxn(1, 100 + i));
    }
    // 40 seen per core, every 4th kept from n=0: 10 each.
    EXPECT_EQ(t.sampledCount(), 20u);
    EXPECT_EQ(t.droppedCount(), 0u);
    EXPECT_EQ(t.mergedRecords().size(), 20u);
}

TEST(Tracer, DeafOutsideMeasurementWindow)
{
    ObsConfig obs = tracingConfig(1, 64);
    Tracer t(obs, 1);
    t.onTransaction(fakeTxn(0, 5));
    EXPECT_EQ(t.sampledCount(), 0u);
    t.setMeasuring(true);
    t.onTransaction(fakeTxn(0, 6));
    EXPECT_EQ(t.sampledCount(), 1u);
}

TEST(Tracer, RingWrapKeepsNewest)
{
    ObsConfig obs = tracingConfig(1, 8);
    Tracer t(obs, 1);
    t.setMeasuring(true);
    for (Cycle i = 0; i < 20; ++i)
        t.onTransaction(fakeTxn(0, 1000 + i));
    EXPECT_EQ(t.sampledCount(), 20u);
    EXPECT_EQ(t.droppedCount(), 12u);
    std::vector<TraceRecord> rec = t.mergedRecords();
    ASSERT_EQ(rec.size(), 8u);
    // The ring overwrites oldest-first, so the survivors are the
    // newest 8 captures — in canonical (issued, core, seq) order.
    for (std::size_t i = 0; i < rec.size(); ++i) {
        EXPECT_EQ(rec[i].issued, 1012 + i);
        EXPECT_EQ(rec[i].seq, 12 + i);
    }
}

TEST(Tracer, CanonicalMergeOrdersAcrossCores)
{
    ObsConfig obs = tracingConfig(1, 16);
    Tracer t(obs, 2);
    t.setMeasuring(true);
    // Feed out of global time order (core 1 runs ahead).
    t.onTransaction(fakeTxn(1, 500));
    t.onTransaction(fakeTxn(0, 200));
    t.onTransaction(fakeTxn(1, 800));
    t.onTransaction(fakeTxn(0, 500));
    std::vector<TraceRecord> rec = t.mergedRecords();
    ASSERT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec[0].issued, 200u);
    // Tie on issued=500 breaks on core.
    EXPECT_EQ(rec[1].core, 0u);
    EXPECT_EQ(rec[2].core, 1u);
    EXPECT_EQ(rec[3].issued, 800u);
}

TEST(Tracer, MarkersSampledAndRetained)
{
    ObsConfig obs = tracingConfig(2, 4);
    Tracer t(obs, 1);
    // Markers are gated on the measurement window too.
    t.onMarker(MarkerKind::ProtectGrant, 0, 10, 0x40, 1);
    EXPECT_EQ(t.retainedMarkers().size(), 0u);
    t.setMeasuring(true);
    for (Cycle i = 0; i < 10; ++i)
        t.onMarker(MarkerKind::ProtectDeny, 0, 100 + i, 0x40, i);
    // 1-in-2 per kind: 5 captured, ring keeps the newest 4.
    std::vector<MarkerRecord> m = t.retainedMarkers();
    ASSERT_EQ(m.size(), 4u);
    EXPECT_EQ(m.front().at, 102u);
    EXPECT_EQ(m.back().at, 108u);
}

TEST(Tracer, StatsExportPercentilesPerPresentClass)
{
    ObsConfig obs = tracingConfig(1, 64);
    Tracer t(obs, 1);
    t.setMeasuring(true);
    for (Cycle i = 0; i < 8; ++i)
        t.onTransaction(fakeTxn(0, i, /*instr=*/false));
    StatSet s = t.stats();
    EXPECT_DOUBLE_EQ(s.get("trace.captured"), 8.0);
    EXPECT_DOUBLE_EQ(s.get("lat.data.count"), 8.0);
    EXPECT_TRUE(s.has("lat.data.total_p99"));
    EXPECT_EQ(s.windowRule("lat.data.total_p99"), WindowRule::KeepLast);
    EXPECT_EQ(s.windowRule("lat.data.count"), WindowRule::Subtract);
    // No instruction transactions were fed: the class is absent from
    // the surface rather than exported as all-zero percentiles.
    EXPECT_FALSE(s.has("lat.instr.count"));
}

// ---- end-to-end: zero perturbation, JSON, determinism --------------

TEST(ObsEndToEnd, KnobsOffBuildsNoSubsystem)
{
    SystemConfig cfg = tinyConfig(2);
    System sys(cfg, homogeneousMix("tpcc", 2));
    EXPECT_EQ(sys.obs(), nullptr);
    Simulator sim(sys);
    SimResult r = sim.run(500, 2000);
    EXPECT_TRUE(r.obs.entries().empty());
}

TEST(ObsEndToEnd, TracingDoesNotPerturbSimulation)
{
    SystemConfig cfg = tinyConfig(2);
    cfg.garibaldiEnabled = true;
    SimResult plain;
    {
        System sys(cfg, homogeneousMix("tpcc", 2));
        Simulator sim(sys);
        plain = sim.run(500, 2000);
    }
    cfg.obs = tracingConfig(1, 256);
    SimResult traced;
    {
        System sys(cfg, homogeneousMix("tpcc", 2));
        Simulator sim(sys);
        traced = sim.run(500, 2000);
    }
    // The tracer and the Garibaldi markers only observe: every
    // simulation-facing stat must be byte-identical with obs on.
    EXPECT_EQ(plain.mem.toString(), traced.mem.toString());
    EXPECT_EQ(plain.garibaldi.toString(), traced.garibaldi.toString());
    EXPECT_EQ(plain.ipcSum(), traced.ipcSum());
    EXPECT_FALSE(traced.obs.entries().empty());
    EXPECT_GT(traced.obs.get("obs.trace.captured"), 0.0);
}

TEST(ObsEndToEnd, ChromeJsonIsWellFormed)
{
    SystemConfig cfg = tinyConfig(2);
    cfg.garibaldiEnabled = true;
    cfg.obs = tracingConfig(4, 512);
    System sys(cfg, homogeneousMix("tpcc", 2));
    Simulator sim(sys);
    sim.run(500, 2000);
    ASSERT_NE(sys.obs(), nullptr);
    ASSERT_NE(sys.obs()->tracer(), nullptr);

    JsonValue doc = JsonValue::parse(sys.obs()->tracer()->chromeJson());
    const JsonValue &events = doc.get("traceEvents");
    ASSERT_GT(events.size(), 2u);
    // Metadata events name one thread per core, then complete events
    // carry the latency legs.
    EXPECT_EQ(events.at(0).get("ph").asString(), "M");
    bool saw_complete = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.at(i);
        if (e.get("ph").asString() != "X")
            continue;
        saw_complete = true;
        EXPECT_GE(e.get("dur").asNumber(), 1.0);
        EXPECT_TRUE(e.get("args").has("l1"));
        EXPECT_TRUE(e.get("args").has("dram"));
        break;
    }
    EXPECT_TRUE(saw_complete);

    // CSV: header plus one row per merged record.
    std::string csv = sys.obs()->tracer()->csv();
    std::size_t rows = 0;
    for (char ch : csv)
        rows += ch == '\n';
    EXPECT_EQ(rows,
              1 + sys.obs()->tracer()->mergedRecords().size());
}

/** Split @p line at commas (trace CSV fields never contain one). */
std::vector<std::string>
csvFields(const std::string &line)
{
    std::vector<std::string> out;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ','))
        out.push_back(field);
    return out;
}

TEST(ObsEndToEnd, CsvLegsSumToTotal)
{
    // Bank contention on, so the queue leg is exercised alongside the
    // L1/L2/LLC/DRAM/MSHR legs.
    SystemConfig cfg = tinyConfig(2);
    cfg.garibaldiEnabled = true;
    cfg.llcBanks = 2;
    cfg.llcBankServiceCycles = 4;
    cfg.obs = tracingConfig(1, 4096);
    System sys(cfg, homogeneousMix("tpcc", 2));
    Simulator sim(sys);
    sim.run(500, 2000);
    ASSERT_NE(sys.obs(), nullptr);

    std::stringstream csv(sys.obs()->tracer()->csv());
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    const std::vector<std::string> header = csvFields(line);
    const std::vector<std::string> want = {
        "issued", "core", "seq", "line", "class", "level", "write",
        "llc_hit", "llc_bank", "l1", "l2", "llc", "queue", "dram",
        "dram_queue", "mshr", "total", "row_leg", "turnaround",
        "refresh_stalled"};
    ASSERT_EQ(header, want);
    auto column = [&header](const std::string &name) {
        return static_cast<std::size_t>(
            std::find(header.begin(), header.end(), name) -
            header.begin());
    };
    // dram_queue is the channel-queue share of dram, not its own leg.
    const std::vector<std::size_t> legs = {
        column("l1"), column("l2"), column("llc"), column("queue"),
        column("dram"), column("mshr")};

    std::size_t rows = 0;
    std::uint64_t queued = 0, dram = 0;
    while (std::getline(csv, line)) {
        SCOPED_TRACE(line);
        std::vector<std::string> f = csvFields(line);
        ASSERT_EQ(f.size(), header.size());
        std::uint64_t sum = 0;
        for (std::size_t c : legs)
            sum += std::stoull(f[c]);
        EXPECT_EQ(sum, std::stoull(f[column("total")]));
        EXPECT_LE(std::stoull(f[column("dram_queue")]),
                  std::stoull(f[column("dram")]));
        queued += std::stoull(f[column("queue")]);
        dram += std::stoull(f[column("dram")]);
        ++rows;
    }
    EXPECT_EQ(rows, sys.obs()->tracer()->mergedRecords().size());
    EXPECT_GT(queued, 0u);
    EXPECT_GT(dram, 0u);
}

TEST(ObsEndToEnd, RerunsAreByteIdentical)
{
    SystemConfig cfg = tinyConfig(2);
    cfg.garibaldiEnabled = true;
    cfg.obs = tracingConfig(2, 256);
    cfg.obs.telemetryWindow = 5000;
    cfg.obs.telemetryOut = "unused.jsonl"; // satisfies validate(); not written
    auto run_once = [&cfg]() {
        System sys(cfg, homogeneousMix("tpcc", 2));
        Simulator sim(sys);
        sim.run(500, 2000);
        return sys.obs()->tracer()->chromeJson() +
               sys.obs()->telemetry()->jsonl();
    };
    EXPECT_EQ(run_once(), run_once());
    std::remove("unused.jsonl");
}

TEST(ObsEndToEnd, TelemetryWindowInvariants)
{
    SystemConfig cfg = tinyConfig(2);
    cfg.obs.telemetryWindow = 4000;
    cfg.obs.telemetryOut = "unused.jsonl";
    System sys(cfg, homogeneousMix("tpcc", 2));
    Simulator sim(sys);
    SimResult r = sim.run(500, 4000);
    ASSERT_NE(sys.obs(), nullptr);
    TelemetrySink *tel = sys.obs()->telemetry();
    ASSERT_NE(tel, nullptr);
    EXPECT_GE(tel->windows(), 2u);

    // Each JSONL line parses; [start, end) spans chain with no gaps
    // and the per-window instruction and counter deltas sum to the
    // detailed window's (both are windowed by windowedStatDelta).
    std::istringstream lines(tel->jsonl());
    std::string line;
    double prev_end = -1, instr_sum = 0, llc_sum = 0, dram_sum = 0;
    std::uint64_t n = 0;
    while (std::getline(lines, line)) {
        JsonValue rec = JsonValue::parse(line);
        EXPECT_DOUBLE_EQ(rec.get("window").asNumber(),
                         static_cast<double>(n));
        if (prev_end >= 0) {
            EXPECT_DOUBLE_EQ(rec.get("start").asNumber(), prev_end);
        }
        EXPECT_GT(rec.get("end").asNumber(),
                  rec.get("start").asNumber());
        prev_end = rec.get("end").asNumber();
        instr_sum += rec.get("instructions").asNumber();
        llc_sum += rec.get("llc_accesses").asNumber();
        dram_sum += rec.get("dram_reads").asNumber();
        EXPECT_TRUE(rec.has("ipc"));
        EXPECT_TRUE(rec.has("llc_hit_rate"));
        ++n;
    }
    EXPECT_EQ(n, tel->windows());
    EXPECT_DOUBLE_EQ(instr_sum, 2.0 * 4000);
    EXPECT_GT(llc_sum, 0.0);
    EXPECT_DOUBLE_EQ(llc_sum, r.mem.get("llc.accesses"));
    EXPECT_DOUBLE_EQ(dram_sum, r.mem.get("dram.reads"));
    std::remove("unused.jsonl");
}

// ---- sweep per-job artifacts ---------------------------------------

TEST(ObsSweep, ArtifactsByteIdenticalAcrossJobCounts)
{
    SystemConfig base = tinyConfig(2);
    auto run_sweep = [&base](unsigned jobs, const std::string &dir) {
        SweepSpec spec(base);
        spec.llcBanks({1, 2})
            .mixes({homogeneousMix("tpcc", 2)});
        ExperimentContext ctx(base, 500, 2000);
        SweepOptions opts;
        opts.jobs = jobs;
        opts.obsDir = dir;
        opts.obsTemplate = tracingConfig(4, 128);
        opts.obsTemplate.telemetryWindow = 5000;
        SweepRunner runner(ctx);
        runner.run(spec, opts);
    };
    run_sweep(1, "obs_test_j1");
    run_sweep(4, "obs_test_j4");

    const char *files[] = {"/job0000.trace.json",
                           "/job0000.trace.json.csv",
                           "/job0000.telemetry.jsonl",
                           "/job0001.trace.json",
                           "/job0001.trace.json.csv",
                           "/job0001.telemetry.jsonl"};
    for (const char *f : files) {
        std::string a = readFile(std::string("obs_test_j1") + f);
        std::string b = readFile(std::string("obs_test_j4") + f);
        EXPECT_FALSE(a.empty()) << f;
        EXPECT_EQ(a, b) << f;
        std::remove((std::string("obs_test_j1") + f).c_str());
        std::remove((std::string("obs_test_j4") + f).c_str());
    }
    // Distinct jobs produce distinct artifacts (banks differ).
    // (Files already removed; the assertion above is the payload.)
}

} // namespace
} // namespace garibaldi
