/**
 * @file
 * Tests for the remaining memory substrates: the three prefetch
 * engines.  The DRAM channel model has its own suite in
 * dram_test.cc (FCFS math, backfill keying, channel mapping).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/prefetch/ghb.hh"
#include "mem/prefetch/ispy.hh"
#include "mem/prefetch/next_line.hh"

namespace garibaldi
{
namespace
{

// --------------------------------------------------------------------
// Prefetchers
// --------------------------------------------------------------------

MemAccess
dataAccess(Addr pc, Addr paddr, bool prefetch = false)
{
    MemAccess a;
    a.pc = pc;
    a.paddr = paddr;
    a.isPrefetch = prefetch;
    return a;
}

TEST(NextLine, PrefetchesSequentialOnMiss)
{
    NextLinePrefetcher pf(2);
    std::vector<Addr> out;
    pf.observe(dataAccess(0x10, 0x1000), /*hit=*/false, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x1040u);
    EXPECT_EQ(out[1], 0x1080u);
}

TEST(NextLine, SilentOnHit)
{
    NextLinePrefetcher pf(1);
    std::vector<Addr> out;
    pf.observe(dataAccess(0x10, 0x1000), /*hit=*/true, out);
    EXPECT_TRUE(out.empty());
}

TEST(Ghb, DetectsStrideAfterConfidence)
{
    GhbPrefetcher pf(256, 2);
    std::vector<Addr> out;
    Addr pc = 0x20;
    // Stride of 2 lines; needs confirmations before issuing.
    for (int i = 0; i < 6; ++i) {
        out.clear();
        pf.observe(dataAccess(pc, Addr{0x1000} + i * 128), false, out);
    }
    ASSERT_FALSE(out.empty());
    // Prefetches continue the stride.
    EXPECT_EQ(out[0], lineAlign(Addr{0x1000} + 5 * 128) + 128);
}

TEST(Ghb, NoPrefetchOnRandomPattern)
{
    GhbPrefetcher pf(256, 2);
    Pcg32 rng(7, 7);
    std::vector<Addr> out;
    for (int i = 0; i < 50; ++i) {
        out.clear();
        pf.observe(dataAccess(0x20, Addr{rng.next()} << kLineShift,
                              false),
                   false, out);
    }
    EXPECT_TRUE(out.empty());
}

TEST(Ghb, IgnoresInstructionAndPrefetchTraffic)
{
    GhbPrefetcher pf(256, 2);
    std::vector<Addr> out;
    MemAccess instr = dataAccess(0x20, 0x1000);
    instr.isInstr = true;
    for (int i = 0; i < 6; ++i) {
        instr.paddr += 64;
        pf.observe(instr, false, out);
    }
    EXPECT_TRUE(out.empty());
}

TEST(Ispy, LearnsMissSuccessors)
{
    IspyPrefetcher pf(4096, 2);
    std::vector<Addr> out;
    auto imiss = [](Addr line) {
        MemAccess a;
        a.pc = line;
        a.paddr = line;
        a.isInstr = true;
        return a;
    };
    // Repeating miss chain A -> B -> C.
    for (int i = 0; i < 8; ++i) {
        out.clear();
        pf.observe(imiss(0x1000), false, out);
        pf.observe(imiss(0x2000), false, out);
        pf.observe(imiss(0x3000), false, out);
    }
    // After training, arriving at the chain head predicts successors.
    out.clear();
    pf.observe(imiss(0x1000), false, out);
    pf.observe(imiss(0x2000), false, out);
    EXPECT_FALSE(out.empty());
}

TEST(Ispy, IgnoresHitsAndData)
{
    IspyPrefetcher pf(4096, 2);
    std::vector<Addr> out;
    MemAccess a;
    a.isInstr = true;
    a.paddr = 0x1000;
    pf.observe(a, /*hit=*/true, out);
    a.isInstr = false;
    pf.observe(a, /*hit=*/false, out);
    EXPECT_TRUE(out.empty());
}

} // namespace
} // namespace garibaldi
