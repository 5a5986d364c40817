/**
 * @file
 * Sweep-engine tests: JSON writer/parser round-trips, declarative axis
 * expansion (order, coordinates, knob application), ResultsTable
 * CSV text, JSON round-trips and selector lookups, parallelFor
 * coverage, concurrent solo-IPC cache safety, and the headline determinism
 * guarantee — a sweep's ResultsTable is byte-identical for --jobs 1
 * and --jobs 8.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sweep/results_table.hh"
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
    return cfg;
}

TEST(Json, ScalarRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", JsonValue::string("fig,\"12\"\nrow"));
    doc.set("count", JsonValue::number(42));
    doc.set("ratio", JsonValue::number(0.1));
    doc.set("tiny", JsonValue::number(1.25e-9));
    doc.set("on", JsonValue::boolean(true));
    doc.set("off", JsonValue::boolean(false));
    doc.set("none", JsonValue());
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue::number(1));
    arr.push(JsonValue::string("two"));
    doc.set("list", std::move(arr));

    for (int indent : {0, 2}) {
        JsonValue back = JsonValue::parse(doc.dump(indent));
        EXPECT_EQ(back.get("name").asString(), "fig,\"12\"\nrow");
        EXPECT_EQ(back.get("count").asNumber(), 42);
        EXPECT_EQ(back.get("ratio").asNumber(), 0.1);
        EXPECT_EQ(back.get("tiny").asNumber(), 1.25e-9);
        EXPECT_TRUE(back.get("on").asBool());
        EXPECT_FALSE(back.get("off").asBool());
        EXPECT_TRUE(back.get("none").isNull());
        EXPECT_EQ(back.get("list").size(), 2u);
        EXPECT_EQ(back.get("list").at(1).asString(), "two");
    }
}

TEST(Json, NumberFormatRoundTripsExactly)
{
    for (double v : {0.1, 1.0 / 3.0, 6.02214076e23, -1.25e-9, 900.0,
                     123456789.0}) {
        double back = std::strtod(jsonNumber(v).c_str(), nullptr);
        EXPECT_EQ(back, v) << jsonNumber(v);
    }
}

TEST(SweepSpec, ExpansionOrderAndCoords)
{
    SweepSpec spec(tinyConfig());
    spec.llcBanks({1, 2}).llcAssociativity({4, 8, 12}).mixes(
        {homogeneousMix("tpcc", 2), homogeneousMix("kafka", 2)});

    EXPECT_EQ(spec.jobCount(), 12u);
    std::vector<SweepJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 12u);

    // Row-major: last axis (mix) varies fastest, first (banks) slowest.
    EXPECT_EQ(jobs[0].coord("banks"), "1");
    EXPECT_EQ(jobs[0].coord("ways"), "4");
    EXPECT_EQ(jobs[0].coord("mix"), "tpcc");
    EXPECT_EQ(jobs[1].coord("mix"), "kafka");
    EXPECT_EQ(jobs[2].coord("ways"), "8");
    EXPECT_EQ(jobs[6].coord("banks"), "2");
    EXPECT_EQ(jobs[11].coord("banks"), "2");
    EXPECT_EQ(jobs[11].coord("ways"), "12");
    EXPECT_EQ(jobs[11].coord("mix"), "kafka");

    // Knobs actually applied to each job's config / mix.
    EXPECT_EQ(jobs[0].config.llcBanks, 1u);
    EXPECT_EQ(jobs[0].config.llcAssoc, 4u);
    EXPECT_EQ(jobs[0].mix.slots.size(), 2u);
    EXPECT_EQ(jobs[11].config.llcBanks, 2u);
    EXPECT_EQ(jobs[11].config.llcAssoc, 12u);
    EXPECT_EQ(jobs[11].mix.name, "kafka");

    // Indices follow expansion order.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);

    EXPECT_TRUE(jobs[0].hasCoord("banks"));
    EXPECT_FALSE(jobs[0].hasCoord("policy"));
}

TEST(SweepSpec, LaterAxesSeeEarlierMutations)
{
    // randomServerMixes draws from config.numCores, which the cores
    // axis (declared first) already set.
    SweepSpec spec(tinyConfig());
    spec.coreCounts({2, 4}).randomServerMixes(7, 1);
    std::vector<SweepJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].mix.slots.size(), 2u);
    EXPECT_EQ(jobs[1].mix.slots.size(), 4u);
}

TEST(SweepSpec, PoliciesAndTagsAndAppend)
{
    SweepSpec a(tinyConfig());
    a.tag("part", "base")
        .policies({{"lru", PolicyKind::LRU, false}})
        .mixes({homogeneousMix("tpcc", 2)});
    SweepSpec b(tinyConfig());
    b.tag("part", "main")
        .policies({{"mockingjay+g", PolicyKind::Mockingjay, true}})
        .mixes({homogeneousMix("tpcc", 2)});

    std::vector<SweepJob> jobs = a.expand();
    appendJobs(jobs, b.expand());
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[1].index, 1u);
    EXPECT_EQ(jobs[0].coord("part"), "base");
    EXPECT_EQ(jobs[1].coord("part"), "main");
    EXPECT_EQ(jobs[0].config.llcPolicy, PolicyKind::LRU);
    EXPECT_FALSE(jobs[0].config.garibaldiEnabled);
    EXPECT_EQ(jobs[1].config.llcPolicy, PolicyKind::Mockingjay);
    EXPECT_TRUE(jobs[1].config.garibaldiEnabled);
}

ResultsTable
sampleTable()
{
    ResultsTable t({"mix", "policy"}, {"metric", "ipc"});
    t.resize(3);
    t.setRow(0, {"tpcc", "lru"}, {1.0, 0.5});
    t.setRow(1, {"tpcc", "mockingjay+g"}, {1.0625, 0.53});
    t.setRow(2, {"kafka, \"quoted\"", "lru"}, {0.9871234567891234, 0.4});
    return t;
}

TEST(ResultsTable, SelectorLookup)
{
    ResultsTable t = sampleTable();
    EXPECT_EQ(t.value({{"mix", "tpcc"}, {"policy", "lru"}}, "metric"),
              1.0);
    EXPECT_EQ(t.value({{"mix", "tpcc"}, {"policy", "mockingjay+g"}},
                      "ipc"),
              0.53);
    EXPECT_EQ(t.select({{"mix", "tpcc"}}).size(), 2u);
    EXPECT_EQ(t.select({{"policy", "lru"}}).size(), 2u);
    EXPECT_EQ(t.select({{"policy", "drrip"}}).size(), 0u);
}

TEST(ResultsTable, CsvText)
{
    // RFC-4180 quoting: a field holding a comma or quote is wrapped in
    // quotes with inner quotes doubled; metrics print via jsonNumber.
    EXPECT_EQ(sampleTable().toCsv(),
              "mix,policy,metric,ipc\n"
              "tpcc,lru,1,0.5\n"
              "tpcc,mockingjay+g,1.0625,0.53\n"
              "\"kafka, \"\"quoted\"\"\",lru,0.9871234567891234,0.4\n");
}

TEST(ResultsTable, JsonRoundTripWithNumericCoordLabels)
{
    // Axes like banks/ways/cores have purely numeric labels; JSON
    // keeps them coordinates.
    ResultsTable t({"mix", "banks"}, {"metric"});
    t.resize(2);
    t.setRow(0, {"tpcc", "1"}, {1.5});
    t.setRow(1, {"tpcc", "8"}, {1.25});
    ResultsTable back = ResultsTable::fromJson(t.toJson());
    EXPECT_EQ(back, t);
    EXPECT_EQ(back.value({{"mix", "tpcc"}, {"banks", "8"}}, "metric"),
              1.25);
}

TEST(Json, NonFiniteNumbersRoundTrip)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(jsonNumber(inf), "Infinity");
    EXPECT_EQ(jsonNumber(-inf), "-Infinity");
    EXPECT_EQ(jsonNumber(std::nan("")), "NaN");
    JsonValue doc = JsonValue::object();
    doc.set("up", JsonValue::number(inf));
    doc.set("down", JsonValue::number(-inf));
    doc.set("nan", JsonValue::number(std::nan("")));
    JsonValue back = JsonValue::parse(doc.dump(2));
    EXPECT_EQ(back.get("up").asNumber(), inf);
    EXPECT_EQ(back.get("down").asNumber(), -inf);
    EXPECT_TRUE(std::isnan(back.get("nan").asNumber()));
}

TEST(ResultsTable, JsonRoundTrip)
{
    ResultsTable t = sampleTable();
    ResultsTable back = ResultsTable::fromJson(t.toJson());
    EXPECT_EQ(back, t);
    EXPECT_EQ(back.toJson(), t.toJson());
    // Compact form parses too.
    EXPECT_EQ(ResultsTable::fromJson(t.toJson(0)), t);
}

TEST(ParallelFor, RunsEveryIndexOnceAndOneLaneInline)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (unsigned jobs : {1u, 3u, 8u}) {
        for (std::size_t count : {0u, 1u, 7u, 1000u}) {
            std::vector<std::atomic<int>> hits(count);
            std::atomic<bool> off_caller{false};
            parallelFor(jobs, count, [&](std::size_t i) {
                hits[i].fetch_add(1);
                if (std::this_thread::get_id() != caller)
                    off_caller = true;
            });
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "jobs " << jobs << " count " << count
                    << " index " << i;
            // One lane (jobs = 1 or count <= 1) runs on the caller.
            if (jobs == 1 || count <= 1) {
                EXPECT_FALSE(off_caller.load())
                    << "jobs " << jobs << " count " << count;
            }
        }
    }
}

TEST(ExperimentContext, SoloIpcSafeForConcurrentCallers)
{
    ExperimentContext ctx(tinyConfig(), 2000, 4000);
    const std::vector<std::string> workloads = {"tpcc", "kafka"};

    // Serial reference values first (fresh context).
    ExperimentContext ref(tinyConfig(), 2000, 4000);
    std::vector<double> expected;
    for (const auto &w : workloads)
        expected.push_back(ref.soloIpc(w));

    std::vector<std::thread> threads;
    std::vector<double> got(8);
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            got[t] = ctx.soloIpc(workloads[t % workloads.size()]);
        });
    for (auto &t : threads)
        t.join();
    for (int t = 0; t < 8; ++t)
        EXPECT_DOUBLE_EQ(got[t], expected[t % workloads.size()]);
}

TEST(SweepRunner, JobCountIndependence)
{
    // The acceptance-critical property: identical ResultsTable bytes
    // for 1 worker and 8 workers.
    SweepSpec spec(tinyConfig());
    spec.policies({{"lru", PolicyKind::LRU, false},
                   {"mockingjay+g", PolicyKind::Mockingjay, true}})
        .mixes({homogeneousMix("tpcc", 2),
                randomServerMix(3, 2)});

    ExperimentContext ctx(tinyConfig(), 2000, 4000);
    SweepRunner runner(ctx);

    SweepOptions serial;
    serial.jobs = 1;
    ResultsTable r1 = runner.run(spec, serial);

    SweepOptions wide;
    wide.jobs = 8;
    ResultsTable r8 = runner.run(spec, wide);

    EXPECT_EQ(r1, r8);
    EXPECT_EQ(r1.toCsv(), r8.toCsv());
    EXPECT_EQ(r1.toJson(), r8.toJson());
    ASSERT_EQ(r1.rowCount(), 4u);
    for (std::size_t i = 0; i < r1.rowCount(); ++i)
        EXPECT_GT(r1.row(i).metrics[0], 0.0);
}

TEST(SweepRunner, ExtraMetricsAndCoordUnion)
{
    SweepSpec a(tinyConfig());
    a.tag("part", "base")
        .policies({{"lru", PolicyKind::LRU, false}})
        .mixes({homogeneousMix("tpcc", 2)});
    SweepSpec b(tinyConfig());
    b.tag("part", "main")
        .llcBanks({2})
        .policies({{"mockingjay", PolicyKind::Mockingjay, false}})
        .mixes({homogeneousMix("tpcc", 2)});
    std::vector<SweepJob> jobs = a.expand();
    appendJobs(jobs, b.expand());

    ExperimentContext ctx(tinyConfig(), 2000, 4000);
    SweepRunner runner(ctx);
    SweepOptions opts;
    opts.jobs = 2;
    opts.extraMetrics.push_back(
        {"instructions", [](const SimResult &r, const SweepJob &) {
             double total = 0;
             for (const auto &c : r.cores)
                 total += static_cast<double>(c.instructions);
             return total;
         }});
    ResultsTable results = runner.run(jobs, opts);

    // Union columns: part, policy, mix, banks (banks only on spec b).
    ASSERT_EQ(results.rowCount(), 2u);
    EXPECT_EQ(results.coordOf(results.row(0), "banks"), "");
    EXPECT_EQ(results.coordOf(results.row(1), "banks"), "2");
    double instr = results.value({{"part", "main"}}, "instructions");
    EXPECT_GT(instr, 0.0);
}

} // namespace
} // namespace garibaldi
