/**
 * @file
 * Workload-engine tests: catalog completeness, stream determinism,
 * code-layout properties, data-space behavior, and the many-to-few vs
 * few-to-many characterization that defines server vs SPEC profiles,
 * and SynthWorkload::fill against per-op next().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "workloads/catalog.hh"
#include "workloads/code_layout.hh"
#include "workloads/data_space.hh"
#include "workloads/mix.hh"
#include "workloads/synth_workload.hh"

namespace garibaldi
{
namespace
{

TEST(Catalog, SixteenServerWorkloads)
{
    EXPECT_EQ(serverWorkloadNames().size(), 16u);
    for (const auto &name : serverWorkloadNames()) {
        ASSERT_TRUE(workloadExists(name)) << name;
        EXPECT_TRUE(workloadByName(name).isServer) << name;
    }
}

TEST(Catalog, SpecWorkloadsPresent)
{
    EXPECT_GE(specWorkloadNames().size(), 8u);
    for (const auto &name : specWorkloadNames()) {
        ASSERT_TRUE(workloadExists(name)) << name;
        EXPECT_FALSE(workloadByName(name).isServer) << name;
    }
}

TEST(Catalog, ServerCodeFootprintsExceedSpec)
{
    double server_min = 1e18, spec_max = 0;
    for (const auto &n : serverWorkloadNames())
        server_min = std::min(
            server_min,
            static_cast<double>(workloadByName(n).numFunctions));
    for (const auto &n : specWorkloadNames())
        spec_max = std::max(
            spec_max,
            static_cast<double>(workloadByName(n).numFunctions));
    EXPECT_GT(server_min, spec_max);
}

TEST(Catalog, UnknownNameIsFatal)
{
    EXPECT_EXIT({ workloadByName("not-a-workload"); },
                testing::ExitedWithCode(1), "");
}

TEST(CodeLayout, FootprintMatchesParameters)
{
    WorkloadParams p = workloadByName("tpcc");
    Pcg32 rng(1, 1);
    CodeLayout layout(p, rng, DataSpace::kHotBase);
    EXPECT_EQ(layout.numFunctions(), p.numFunctions);
    // Average ~1 KB per function (10 blocks x ~22 instrs x 4 B).
    double kb = static_cast<double>(layout.codeBytes()) / 1024.0;
    EXPECT_GT(kb, p.numFunctions * 0.5);
    EXPECT_LT(kb, p.numFunctions * 2.0);
}

TEST(CodeLayout, BlocksAreContiguousWithinFunction)
{
    WorkloadParams p = workloadByName("voter");
    Pcg32 rng(1, 1);
    CodeLayout layout(p, rng, DataSpace::kHotBase);
    const FunctionInfo &f = layout.function(0);
    for (std::uint32_t b = 1; b < f.numBlocks; ++b) {
        const BlockInfo &prev = layout.block(f.firstBlock + b - 1);
        const BlockInfo &cur = layout.block(f.firstBlock + b);
        EXPECT_EQ(cur.pc,
                  prev.pc + prev.numInstrs * CodeLayout::kInstrBytes);
    }
}

TEST(CodeLayout, FunctionEntriesDoNotShareLines)
{
    WorkloadParams p = workloadByName("noop");
    Pcg32 rng(1, 1);
    CodeLayout layout(p, rng, DataSpace::kHotBase);
    std::set<Addr> entry_lines;
    for (std::uint32_t f = 0; f < layout.numFunctions(); ++f)
        entry_lines.insert(lineAlign(layout.function(f).entry));
    EXPECT_EQ(entry_lines.size(), layout.numFunctions());
}

TEST(CodeLayout, PreferredLinesComeFromOffsetPool)
{
    WorkloadParams p = workloadByName("tpcc");
    Pcg32 rng(1, 1);
    CodeLayout layout(p, rng, DataSpace::kHotBase);
    Addr lo = DataSpace::kHotBase +
              Addr{p.preferredPoolOffset} * kLineBytes;
    Addr hi = lo + Addr{p.preferredPool} * kLineBytes;
    for (std::uint32_t b = 0; b < layout.numBlocks(); ++b) {
        Addr pl = layout.block(b).preferredLine;
        EXPECT_GE(pl, lo);
        EXPECT_LT(pl, hi);
    }
}

TEST(DataSpace, StreamIsSequentialAndWraps)
{
    WorkloadParams p = workloadByName("bwaves");
    p.streamBytes = 4 * kLineBytes;
    DataSpace ds(p);
    Pcg32 rng(1, 1);
    Addr a0 = ds.sample(DataClass::Stream, rng);
    Addr a1 = ds.sample(DataClass::Stream, rng);
    EXPECT_EQ(a1, a0 + kLineBytes);
    ds.sample(DataClass::Stream, rng);
    ds.sample(DataClass::Stream, rng);
    EXPECT_EQ(ds.sample(DataClass::Stream, rng), a0); // wrapped
}

TEST(DataSpace, RegionsAreDisjoint)
{
    WorkloadParams p = workloadByName("tpcc");
    DataSpace ds(p);
    Pcg32 rng(2, 2);
    for (int i = 0; i < 200; ++i) {
        Addr hot = ds.sample(DataClass::Hot, rng);
        Addr warm = ds.sample(DataClass::Warm, rng);
        Addr stream = ds.sample(DataClass::Stream, rng);
        EXPECT_LT(hot, DataSpace::kWarmBase);
        EXPECT_GE(warm, DataSpace::kWarmBase);
        EXPECT_LT(warm, DataSpace::kStreamBase);
        EXPECT_GE(stream, DataSpace::kStreamBase);
    }
}

TEST(DataSpace, HotSamplingIsSkewed)
{
    WorkloadParams p = workloadByName("voter"); // hotZipf 1.1
    DataSpace ds(p);
    Pcg32 rng(3, 3);
    std::map<Addr, int> counts;
    for (int i = 0; i < 20000; ++i)
        ++counts[ds.sample(DataClass::Hot, rng)];
    // The most popular line takes a disproportionate share.
    int max_count = 0;
    for (auto &[a, c] : counts)
        max_count = std::max(max_count, c);
    EXPECT_GT(max_count, 20000 / 100);
}

TEST(SynthWorkload, DeterministicStreams)
{
    WorkloadParams p = workloadByName("tpcc");
    SynthWorkload a(p, 42, SynthWorkload::makeLayout(p)),
        b(p, 42, SynthWorkload::makeLayout(p));
    for (int i = 0; i < 5000; ++i) {
        MicroOp oa = a.next(), ob = b.next();
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.vaddr, ob.vaddr);
        EXPECT_EQ(static_cast<int>(oa.mem), static_cast<int>(ob.mem));
        EXPECT_EQ(oa.branchTaken, ob.branchTaken);
    }
}

TEST(SynthWorkload, SeedsChangeWalkNotLayout)
{
    WorkloadParams p = workloadByName("tpcc");
    SynthWorkload a(p, 1, SynthWorkload::makeLayout(p)),
        b(p, 2, SynthWorkload::makeLayout(p));
    // Same static image...
    EXPECT_EQ(a.layout().codeBytes(), b.layout().codeBytes());
    // ...different dynamic path.
    int differing = 0;
    for (int i = 0; i < 2000; ++i)
        differing += a.next().pc != b.next().pc;
    EXPECT_GT(differing, 0);
}

TEST(SynthWorkload, DispatchesThroughIndirectCalls)
{
    WorkloadParams p = workloadByName("noop");
    SynthWorkload w(p, 7, SynthWorkload::makeLayout(p));
    int indirect = 0;
    for (int i = 0; i < 20000; ++i) {
        MicroOp op = w.next();
        if (op.isIndirect) {
            ++indirect;
            EXPECT_EQ(lineAlign(op.pc),
                      lineAlign(SynthWorkload::kDispatcherPc));
            EXPECT_TRUE(op.branchTaken);
            EXPECT_NE(op.branchTarget, 0u);
        }
    }
    EXPECT_GT(indirect, 20);
}

TEST(SynthWorkload, MemoryOpsCarryAddresses)
{
    WorkloadParams p = workloadByName("tpcc");
    SynthWorkload w(p, 7, SynthWorkload::makeLayout(p));
    int mem_ops = 0;
    for (int i = 0; i < 10000; ++i) {
        MicroOp op = w.next();
        if (op.mem != MicroOp::MemKind::None) {
            ++mem_ops;
            EXPECT_NE(op.vaddr, 0u);
        }
    }
    // memProb 0.30 over non-branch instructions.
    EXPECT_GT(mem_ops, 1500);
    EXPECT_LT(mem_ops, 4500);
}

TEST(SynthWorkload, ManyToFewVsFewToMany)
{
    // The paper's Fig. 3(c) contrast: server workloads touch many
    // instruction lines and few hot data lines; SPEC the reverse.
    auto profile = [](const char *name) {
        WorkloadParams p = workloadByName(name);
        SynthWorkload w(p, 11, SynthWorkload::makeLayout(p));
        std::set<Addr> ilines;
        std::set<Addr> dlines;
        for (int i = 0; i < 60000; ++i) {
            MicroOp op = w.next();
            ilines.insert(lineAlign(op.pc));
            if (op.mem != MicroOp::MemKind::None)
                dlines.insert(lineAlign(op.vaddr));
        }
        return std::make_pair(ilines.size(), dlines.size());
    };
    auto [server_i, server_d] = profile("verilator");
    auto [spec_i, spec_d] = profile("bwaves");
    EXPECT_GT(server_i, 8 * spec_i); // scattered server code
    EXPECT_GT(static_cast<double>(server_i) / server_d,
              8.0 * spec_i / spec_d);
}

TEST(SynthWorkload, BranchesMostlyPredictableBias)
{
    WorkloadParams p = workloadByName("tpcc");
    SynthWorkload w(p, 13, SynthWorkload::makeLayout(p));
    std::uint64_t branches = 0, taken = 0;
    for (int i = 0; i < 50000; ++i) {
        MicroOp op = w.next();
        if (op.isBranch && !op.isIndirect) {
            ++branches;
            taken += op.branchTaken;
        }
    }
    ASSERT_GT(branches, 1000u);
    double rate = static_cast<double>(taken) / branches;
    EXPECT_GT(rate, 0.5);
}

TEST(Mix, HomogeneousConstruction)
{
    Mix m = homogeneousMix("tpcc", 8);
    EXPECT_EQ(m.slots.size(), 8u);
    EXPECT_TRUE(m.homogeneous());
}

TEST(Mix, RandomServerMixDrawsFromTable3)
{
    Mix m = randomServerMix(5, 40);
    EXPECT_EQ(m.slots.size(), 40u);
    const auto &names = serverWorkloadNames();
    for (const auto &s : m.slots) {
        EXPECT_NE(std::find(names.begin(), names.end(), s),
                  names.end());
    }
    // Two seeds give different mixes.
    Mix m2 = randomServerMix(6, 40);
    EXPECT_NE(m.slots, m2.slots);
}

TEST(Mix, ServerFractionRespected)
{
    Mix m = serverFractionMix(3, 8, 0.5);
    int servers = 0;
    for (const auto &s : m.slots)
        servers += workloadByName(s).isServer;
    EXPECT_EQ(servers, 4);
    Mix all_spec = serverFractionMix(3, 8, 0.0);
    for (const auto &s : all_spec.slots)
        EXPECT_FALSE(workloadByName(s).isServer);
}

TEST(Mix, ExplicitValidatesNames)
{
    EXPECT_EXIT({ explicitMix("bad", {"tpcc", "nope"}); },
                testing::ExitedWithCode(1), "");
    Mix m = explicitMix("ok", {"tpcc", "kafka"});
    EXPECT_FALSE(m.homogeneous());
}

TEST(WorkloadParams, FootprintScaling)
{
    WorkloadParams p = workloadByName("tpcc");
    std::uint64_t hot = p.hotBytes;
    std::uint32_t funcs = p.numFunctions;
    p.scaleFootprint(0.5);
    EXPECT_EQ(p.hotBytes, hot / 2);
    EXPECT_EQ(p.numFunctions, funcs / 2);
    p.scaleFootprint(0.0); // floors at one function
    EXPECT_EQ(p.numFunctions, 1u);
}

TEST(Batch, StreamFillMatchesPerOpNext)
{
    WorkloadParams params = workloadByName("tpcc");
    SynthWorkload a(params, /*seed=*/7, SynthWorkload::makeLayout(params));
    SynthWorkload b(params, /*seed=*/7, SynthWorkload::makeLayout(params));

    std::vector<MicroOp> filled(1000);
    // Ragged chunks: fill() must be exactly n next() calls.
    std::size_t chunk = 1, at = 0;
    while (at < filled.size()) {
        std::size_t n = std::min(chunk, filled.size() - at);
        a.fill(&filled[at], n);
        at += n;
        chunk = chunk % 13 + 1;
    }
    for (std::size_t i = 0; i < filled.size(); ++i) {
        MicroOp op = b.next();
        ASSERT_EQ(op.pc, filled[i].pc) << i;
        ASSERT_EQ(op.mem, filled[i].mem) << i;
        ASSERT_EQ(op.vaddr, filled[i].vaddr) << i;
        ASSERT_EQ(op.isBranch, filled[i].isBranch) << i;
        ASSERT_EQ(op.branchTaken, filled[i].branchTaken) << i;
        ASSERT_EQ(op.isIndirect, filled[i].isIndirect) << i;
        ASSERT_EQ(op.branchTarget, filled[i].branchTarget) << i;
    }
}

} // namespace
} // namespace garibaldi
