/**
 * @file
 * Threshold-unit and Garibaldi-facade tests: coloring cadence, PMU
 * matching via the recent I-miss PC rings, dynamic threshold movement,
 * fixed/all modes, and the facade's allocate/update, protection and
 * pairwise-prefetch flows (Fig. 5 end to end).
 */

#include <gtest/gtest.h>

#include "garibaldi/garibaldi.hh"
#include "garibaldi/storage.hh"
#include "garibaldi/threshold_unit.hh"

namespace garibaldi
{
namespace
{

GaribaldiParams
testParams()
{
    GaribaldiParams p;
    p.pairTableEntries = 1024;
    p.dppnEntries = 512;
    p.colorPeriod = 100;
    p.missCostInit = 32;
    return p;
}

// --------------------------------------------------------------------
// Threshold unit
// --------------------------------------------------------------------

TEST(ThresholdUnit, ColorAdvancesEveryPeriod)
{
    ThresholdUnit t(testParams(), 1);
    EXPECT_EQ(t.color(), 0u);
    for (int i = 0; i < 100; ++i)
        t.onLlcAccess(true);
    EXPECT_EQ(t.color(), 1u);
    EXPECT_EQ(t.rotations(), 1u);
}

TEST(ThresholdUnit, ColorWrapsAtWidth)
{
    GaribaldiParams p = testParams();
    p.colorBits = 2; // 4 colors
    ThresholdUnit t(p, 1);
    for (int c = 0; c < 4 * 100; ++c)
        t.onLlcAccess(true);
    EXPECT_EQ(t.color(), 0u);
    EXPECT_EQ(t.rotations(), 4u);
}

TEST(ThresholdUnit, PmuMatchesRecentInstrMissPcs)
{
    ThresholdUnit t(testParams(), 2);
    t.onInstrMiss(0, 0x4000);
    // Same 64B-aligned PC on the same core: matched (hits tracked).
    t.onDataAccess(0, 0x4004, /*hit=*/false);
    t.onDataAccess(0, 0x4038, /*hit=*/false);
    // Different core's ring does not match.
    t.onDataAccess(1, 0x4004, false);
    // Run out the color and check the conditional rate was 2/2 misses.
    for (int i = 0; i < 100; ++i)
        t.onLlcAccess(true); // overall miss rate 0
    EXPECT_DOUBLE_EQ(t.lastConditionalMissRate(), 1.0);
    EXPECT_DOUBLE_EQ(t.lastLlcMissRate(), 0.0);
}

TEST(ThresholdUnit, RingCapsAtTenPcs)
{
    ThresholdUnit t(testParams(), 1);
    // Fill the 10-deep ring, pushing out the first PC.
    for (Addr pc = 0; pc < 11; ++pc)
        t.onInstrMiss(0, 0x1000 + pc * 64);
    t.onDataAccess(0, 0x1000, false); // evicted: no match
    for (int i = 0; i < 100; ++i)
        t.onLlcAccess(true);
    // No matched accesses => conditional rate falls back to miss rate.
    EXPECT_DOUBLE_EQ(t.lastConditionalMissRate(), t.lastLlcMissRate());
}

TEST(ThresholdUnit, ThresholdDropsWhenMatchedDataHits)
{
    ThresholdUnit t(testParams(), 1);
    unsigned start = t.threshold();
    for (int round = 0; round < 3; ++round) {
        t.onInstrMiss(0, 0x4000);
        // Matched data hits while the LLC misses overall.
        for (int i = 0; i < 50; ++i)
            t.onDataAccess(0, 0x4000, /*hit=*/true);
        for (int i = 0; i < 100; ++i)
            t.onLlcAccess(/*hit=*/false);
    }
    EXPECT_LT(t.threshold(), start);
}

TEST(ThresholdUnit, ThresholdRisesWhenMatchedDataMisses)
{
    ThresholdUnit t(testParams(), 1);
    unsigned start = t.threshold();
    for (int round = 0; round < 3; ++round) {
        t.onInstrMiss(0, 0x4000);
        for (int i = 0; i < 50; ++i)
            t.onDataAccess(0, 0x4000, /*hit=*/false);
        for (int i = 0; i < 100; ++i)
            t.onLlcAccess(/*hit=*/true);
    }
    EXPECT_GT(t.threshold(), start);
}

/**
 * One color period of testParams(): an LLC miss rate of 0.50 and a
 * P(D_miss | I_miss) of @p pd_misses / 100.
 */
void
runPeriod(ThresholdUnit &t, int pd_misses)
{
    t.onInstrMiss(0, 0x4000);
    for (int i = 0; i < 100; ++i)
        t.onDataAccess(0, 0x4000, /*hit=*/i >= pd_misses);
    for (int i = 0; i < 100; ++i)
        t.onLlcAccess(/*hit=*/i >= 50);
}

TEST(ThresholdUnit, HoldsInsideMargin)
{
    ThresholdUnit t(testParams(), 1);
    ASSERT_EQ(t.threshold(), kThresholdInit);
    // Within kThresholdMargin (0.02) of the miss rate: the dead band.
    for (int pd : {48, 49, 50, 51, 52}) {
        runPeriod(t, pd);
        EXPECT_DOUBLE_EQ(t.lastLlcMissRate(), 0.5);
        EXPECT_DOUBLE_EQ(t.lastConditionalMissRate(), pd / 100.0);
        EXPECT_EQ(t.threshold(), kThresholdInit) << "pd " << pd;
    }
    runPeriod(t, 47); // 0.03 below: retain more instructions
    EXPECT_EQ(t.threshold(), kThresholdInit - 1);
    runPeriod(t, 53); // 0.03 above: be more selective
    EXPECT_EQ(t.threshold(), kThresholdInit);
    runPeriod(t, 53);
    EXPECT_EQ(t.threshold(), kThresholdInit + 1);
}

TEST(ThresholdUnit, FixedModeNeverMoves)
{
    GaribaldiParams p = testParams();
    p.thresholdMode = ThresholdMode::Fixed;
    p.fixedThresholdDelta = 16;
    ThresholdUnit t(p, 1);
    EXPECT_EQ(t.threshold(), 48u);
    for (int round = 0; round < 5; ++round) {
        t.onInstrMiss(0, 0x4000);
        for (int i = 0; i < 50; ++i)
            t.onDataAccess(0, 0x4000, true);
        for (int i = 0; i < 100; ++i)
            t.onLlcAccess(false);
    }
    EXPECT_EQ(t.threshold(), 48u);
}

TEST(ThresholdUnit, FixedModeClampsDelta)
{
    GaribaldiParams p = testParams();
    p.thresholdMode = ThresholdMode::Fixed;
    p.fixedThresholdDelta = -100;
    ThresholdUnit t(p, 1);
    EXPECT_EQ(t.threshold(), 1u);
}

TEST(ThresholdUnit, AllProtectedIsZero)
{
    GaribaldiParams p = testParams();
    p.thresholdMode = ThresholdMode::AllProtected;
    ThresholdUnit t(p, 1);
    EXPECT_EQ(t.threshold(), 0u);
}

// --------------------------------------------------------------------
// Garibaldi facade
// --------------------------------------------------------------------

MemAccess
instrAccess(CoreId core, Addr pc_vaddr, Addr paddr)
{
    MemAccess a;
    a.core = core;
    a.pc = pc_vaddr;
    a.paddr = paddr;
    a.isInstr = true;
    return a;
}

MemAccess
dataAccess(CoreId core, Addr pc_vaddr, Addr paddr)
{
    MemAccess a;
    a.core = core;
    a.pc = pc_vaddr;
    a.paddr = paddr;
    return a;
}

/** Drive one instruction-data pair through the facade. */
void
pairOnce(Garibaldi &g, CoreId core, Addr pc, Addr il_pa, Addr dl_pa,
         bool instr_hit, bool data_hit)
{
    g.observeAccess(instrAccess(core, pc, il_pa), instr_hit, 0);
    g.observeAccess(dataAccess(core, pc, dl_pa), data_hit, 0);
}

TEST(Garibaldi, DataAccessPairsThroughHelperTable)
{
    Garibaldi g(testParams(), 2);
    Addr pc = 0x00400c40;        // virtual
    Addr il_pa = 0x7700000c40;   // physical frame 0x770000x
    pairOnce(g, 0, pc, il_pa, 0x990000, true, true);
    // The pair entry must be keyed by the *reconstructed* IL_PA.
    auto d = g.pairTable().debugEntry(lineAlign(il_pa));
    EXPECT_TRUE(d.tagMatch);
    EXPECT_EQ(d.missCost, 33u);
}

TEST(Garibaldi, UnknownPcPageDoesNotPair)
{
    Garibaldi g(testParams(), 1);
    // Data access with a PC whose page was never fetched.
    g.observeAccess(dataAccess(0, 0xdead000, 0x990000), true, 0);
    EXPECT_EQ(g.stats().get("unpaired_data"), 1.0);
}

TEST(Garibaldi, HelperTablesArePerCore)
{
    Garibaldi g(testParams(), 2);
    Addr pc = 0x400c40;
    g.observeAccess(instrAccess(0, pc, 0x7700000c40), true, 0);
    // Core 1 never recorded the mapping: its data access is unpaired.
    g.observeAccess(dataAccess(1, pc, 0x990000), true, 0);
    EXPECT_EQ(g.stats().get("unpaired_data"), 1.0);
}

TEST(Garibaldi, ProtectsHighCostInstrLines)
{
    GaribaldiParams p = testParams();
    p.thresholdMode = ThresholdMode::Fixed;
    p.fixedThresholdDelta = 0; // threshold 32
    Garibaldi g(p, 1);
    Addr pc = 0x400c40, il_pa = 0x7700000c40;
    for (int i = 0; i < 8; ++i)
        pairOnce(g, 0, pc, il_pa, 0x990000, true, /*data hit*/ true);
    EXPECT_TRUE(g.shouldProtect(lineAlign(il_pa))); // cost 40 > 32
}

TEST(Garibaldi, DoesNotProtectColdPairedLines)
{
    GaribaldiParams p = testParams();
    p.thresholdMode = ThresholdMode::Fixed;
    Garibaldi g(p, 1);
    Addr pc = 0x400c40, il_pa = 0x7700000c40;
    for (int i = 0; i < 8; ++i)
        pairOnce(g, 0, pc, il_pa, 0x990000, true, /*data miss*/ false);
    EXPECT_FALSE(g.shouldProtect(lineAlign(il_pa))); // cost 24 < 32
}

TEST(Garibaldi, ProtectionDisableSwitch)
{
    GaribaldiParams p = testParams();
    p.thresholdMode = ThresholdMode::AllProtected;
    p.protectionEnabled = false;
    Garibaldi g(p, 1);
    Addr pc = 0x400c40, il_pa = 0x7700000c40;
    pairOnce(g, 0, pc, il_pa, 0x990000, true, true);
    EXPECT_FALSE(g.shouldProtect(lineAlign(il_pa)));
}

TEST(Garibaldi, PrefetchOnlyForUnprotectedLines)
{
    GaribaldiParams p = testParams();
    p.thresholdMode = ThresholdMode::Fixed; // threshold 32
    Garibaldi g(p, 1);
    Addr pc = 0x400c40, il_pa = 0x7700000c40, dl = 0x990000;

    // Cold pairing: cost sinks below the threshold => prefetch fires.
    for (int i = 0; i < 4; ++i)
        pairOnce(g, 0, pc, il_pa, dl, true, false);
    std::vector<Addr> out;
    g.instrMissPrefetch(lineAlign(il_pa), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], lineAlign(dl));

    // Hot pairing: line becomes protected => no prefetch (§4.3).
    for (int i = 0; i < 12; ++i)
        pairOnce(g, 0, pc, il_pa, dl, true, true);
    out.clear();
    g.instrMissPrefetch(lineAlign(il_pa), out);
    EXPECT_TRUE(out.empty());
}

TEST(Garibaldi, PrefetchDisabledByKZero)
{
    GaribaldiParams p = testParams();
    p.k = 0;
    Garibaldi g(p, 1);
    Addr pc = 0x400c40, il_pa = 0x7700000c40;
    for (int i = 0; i < 4; ++i)
        pairOnce(g, 0, pc, il_pa, 0x990000, true, false);
    std::vector<Addr> out;
    g.instrMissPrefetch(lineAlign(il_pa), out);
    EXPECT_TRUE(out.empty());
}

TEST(Garibaldi, QbsParametersExposed)
{
    GaribaldiParams p = testParams();
    p.qbsMaxAttempts = 2;
    Garibaldi g(p, 1);
    EXPECT_EQ(g.maxProtectAttempts(), 2u);
    EXPECT_EQ(g.queryCost(), 1u);
}

TEST(Garibaldi, InstrMissArmsPairFields)
{
    Garibaldi g(testParams(), 1);
    Addr pc = 0x400c40, il_pa = 0x7700000c40;
    pairOnce(g, 0, pc, il_pa, 0x990000, true, true);
    ASSERT_FALSE(
        g.pairTable().debugEntry(lineAlign(il_pa)).fields[0].oldBit);
    g.observeAccess(instrAccess(0, pc, il_pa), /*hit=*/false, 0);
    EXPECT_TRUE(
        g.pairTable().debugEntry(lineAlign(il_pa)).fields[0].oldBit);
}

// --------------------------------------------------------------------
// Storage calculator (Table 2)
// --------------------------------------------------------------------

TEST(Storage, Table2Defaults)
{
    GaribaldiParams p; // Table 2 defaults
    StorageBreakdown b = computeStorage(p, 40, 30 * 1024 * 1024,
                                        10ull * 4 * 1024 * 1024);
    // DL_PA field: 6 + 13 + 1 + 3 = 23 bits (Table 2).
    EXPECT_EQ(b.dlFieldBits, 23u);
    // Pair entry: tag 24 + cost 6 + color 3 + valid 1 = 34 bits.
    EXPECT_EQ(b.pairEntryBits, 34u);
    // Helper entry: 29 + 32 + 1 + 3 = 65 bits (Table 2 quotes 64).
    EXPECT_NEAR(b.helperEntryBits, 64.0, 1.0);
    // Total lands near the paper's 193.9 KB for 40 cores.
    EXPECT_GT(b.totalBytes, 120u * 1024);
    EXPECT_LT(b.totalBytes, 220u * 1024);
    // Under 1% of the 30 MB LLC.
    EXPECT_LT(b.fractionOfLlc, 0.01);
    EXPECT_LT(b.fractionWithInstrBit, 0.012);
}

TEST(Storage, GrowsWithKAndEntries)
{
    GaribaldiParams p;
    StorageBreakdown base = computeStorage(p, 8, 6u * 1024 * 1024,
                                           2u * 1024 * 1024);
    p.k = 4;
    StorageBreakdown k4 = computeStorage(p, 8, 6u * 1024 * 1024,
                                         2u * 1024 * 1024);
    EXPECT_GT(k4.pairTableBytes, base.pairTableBytes);
    p.k = 1;
    p.pairTableEntries = 1u << 18;
    StorageBreakdown big = computeStorage(p, 8, 6u * 1024 * 1024,
                                          2u * 1024 * 1024);
    EXPECT_GT(big.pairTableBytes, 8 * base.pairTableBytes);
}

TEST(Storage, RendersText)
{
    GaribaldiParams p;
    StorageBreakdown b = computeStorage(p, 8, 6u * 1024 * 1024,
                                        2u * 1024 * 1024);
    std::string text = b.toString();
    EXPECT_NE(text.find("pair table"), std::string::npos);
    EXPECT_NE(text.find("KB"), std::string::npos);
}

} // namespace
} // namespace garibaldi
