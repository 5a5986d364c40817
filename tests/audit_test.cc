/**
 * @file
 * Runtime invariant-audit mode (common/audit.hh): every shipped check
 * must fire on corrupted state, stay silent on healthy state, and cost
 * nothing when the --audit knob is off.  Death tests match the
 * "audit: " panic prefix so a panic from any other subsystem cannot
 * satisfy them.
 */

#include <gtest/gtest.h>

#include "common/audit.hh"
#include "common/cli.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/llc_bank_set.hh"
#include "obs/telemetry.hh"

namespace garibaldi
{
namespace
{

/** Enables auditing for the test body and always restores "off". */
class AuditTest : public ::testing::Test
{
  protected:
    void SetUp() override { audit::setEnabled(true); }
    void TearDown() override { audit::setEnabled(false); }
};

TEST(AuditModeTest, CompiledInByDefaultBuild)
{
    // The default build configures -DSIM_AUDIT=ON; the test suite
    // exercises the checks, so it must run against a compiled-in audit.
    EXPECT_TRUE(audit::kCompiledIn);
}

TEST(AuditModeTest, CliOffByDefault)
{
    audit::setEnabled(false);
    ArgParser args("audit test");
    audit::addAuditArg(args);
    const char *argv[] = {"prog"};
    args.parse(1, argv);
    EXPECT_FALSE(audit::applyAuditArg(args));
    EXPECT_FALSE(audit::enabled());
}

TEST(AuditModeTest, CliFlagEnables)
{
    audit::setEnabled(false);
    ArgParser args("audit test");
    audit::addAuditArg(args);
    const char *argv[] = {"prog", "--audit"};
    args.parse(2, argv);
    EXPECT_TRUE(audit::applyAuditArg(args));
    EXPECT_TRUE(audit::enabled());
    audit::setEnabled(false);
}

TEST(AuditModeTest, DisabledChecksAreSilentOnCorruptState)
{
    audit::setEnabled(false);
    // Flagrantly violated invariants must not panic with auditing off.
    audit::checkStallSubset("dram", 100, 100, 1);
    audit::checkMshrBudgetSplit("llc", 10, 4, 3);
    SUCCEED();
}

// ---- DRAM stall-subset invariant -----------------------------------

TEST_F(AuditTest, StallSubsetFiresWhenComponentsExceedTotal)
{
    EXPECT_DEATH(audit::checkStallSubset("dram", 10, 5, 12), "audit: ");
}

TEST_F(AuditTest, StallSubsetSilentOnHealthyCounters)
{
    audit::checkStallSubset("dram", 0, 0, 0);
    audit::checkStallSubset("dram", 10, 5, 15);
    audit::checkStallSubset("dram", 10, 5, 100);
    SUCCEED();
}

// ---- LLC MSHR budget split -----------------------------------------

TEST_F(AuditTest, MshrSplitFiresWhenBudgetLeaks)
{
    // 10 MSHRs over 4 banks must assign exactly 10; 9 lost one.
    EXPECT_DEATH(audit::checkMshrBudgetSplit("llc", 10, 4, 9),
                 "audit: ");
}

TEST_F(AuditTest, MshrSplitSilentOnConservedBudget)
{
    audit::checkMshrBudgetSplit("llc", 10, 4, 10);
    // Every bank keeps at least one MSHR: 2 over 4 banks clamps to 4.
    audit::checkMshrBudgetSplit("llc", 2, 4, 4);
    SUCCEED();
}

TEST_F(AuditTest, BankedLlcConstructionPassesTheSplitCheck)
{
    CacheParams llc;
    llc.name = "llc";
    llc.sizeBytes = 1 << 20;
    llc.assoc = 16;
    llc.mshrs = 10;
    LlcBankSet set(llc, 4, 6);
    SUCCEED();
}

// ---- MSHR booked-completion >= caller clock ------------------------

/** A frame-booked L2 holding lines 0x1000, 0x2000 and 0x3000. */
Cache
filledL2()
{
    CacheParams p;
    p.name = "l2";
    Cache c(p, MshrBook::Frame);
    for (Addr a : {0x1000, 0x2000, 0x3000}) {
        MemAccess acc;
        acc.paddr = a;
        c.insert(acc);
    }
    return c;
}

TEST_F(AuditTest, AddPendingFiresOnCompletionInThePast)
{
    Cache c = filledL2();
    EXPECT_DEATH(c.addPending(0x1000, 5, 10), "audit: ");
}

TEST_F(AuditTest, AddPendingSilentOnFutureCompletion)
{
    Cache c = filledL2();
    c.addPending(0x1000, 10, 5);
    c.addPending(0x2000, 7, 7);
    c.addPending(0x3000, 9);  // clockless caller: now defaults to 0
    SUCCEED();
}

// ---- a frame book books only resident lines ------------------------

TEST_F(AuditTest, AddPendingFiresOnLineNotResident)
{
    // Every hierarchy call site books right after inserting the line;
    // a frame book has nowhere to keep a booking of any other line.
    for (MshrBook book : {MshrBook::FrameAndList, MshrBook::Frame}) {
        CacheParams p;
        p.name = "l1d";
        Cache c(p, book);
        EXPECT_DEATH(c.addPending(0x1000, 10, 5), "audit: .*not resident");
    }
}

TEST_F(AuditTest, AddPendingOfNonResidentLineSilentInTableBook)
{
    // The table keeps a booking past its line's eviction.
    CacheParams p;
    p.name = "llc";
    Cache c(p, MshrBook::Table);
    c.addPending(0x1000, 10, 5);
    SUCCEED();
}

// ---- Telemetry window chaining -------------------------------------

ObsConfig telemetryConfig()
{
    ObsConfig cfg;
    cfg.telemetryWindow = 100;
    cfg.telemetryOut = "audit_test_windows.jsonl";
    return cfg;
}

TEST_F(AuditTest, TelemetryFiresWhenWindowEndsBeforeItsStart)
{
    TelemetrySink tel(telemetryConfig(), 1);
    StatSet mem, gari;
    tel.begin(100, mem, gari, 0);
    EXPECT_DEATH(tel.sample(50, mem, gari, 1), "audit: ");
}

TEST_F(AuditTest, TelemetryFiresOnBrokenWindowChain)
{
    TelemetrySink tel(telemetryConfig(), 1);
    StatSet mem, gari;
    tel.begin(0, mem, gari, 0);
    tel.sample(100, mem, gari, 10);
    // Re-arming mid-stream tears the chain: window 1 would start at
    // 150 though window 0 ended at 100.
    tel.begin(150, mem, gari, 10);
    EXPECT_DEATH(tel.sample(250, mem, gari, 20), "audit: ");
}

TEST_F(AuditTest, TelemetryFiresWhenInstructionsRunBackwards)
{
    TelemetrySink tel(telemetryConfig(), 1);
    StatSet mem, gari;
    tel.begin(0, mem, gari, 100);
    EXPECT_DEATH(tel.sample(100, mem, gari, 50), "audit: ");
}

TEST_F(AuditTest, TelemetrySilentOnHealthyStream)
{
    TelemetrySink tel(telemetryConfig(), 1);
    StatSet mem, gari;
    tel.begin(0, mem, gari, 0);
    tel.sample(100, mem, gari, 10);
    tel.sample(230, mem, gari, 25);   // off-grid boundary is fine
    tel.finish(300, mem, gari, 31);
    EXPECT_EQ(tel.windows(), 3u);
}

} // namespace
} // namespace garibaldi
