/**
 * @file
 * Memory-hierarchy integration tests: NINE fill behavior, writeback
 * paths, pending-fill latency propagation, prefetcher wiring and the
 * Garibaldi hook points.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace garibaldi
{
namespace
{

HierarchyParams
smallHier(std::uint32_t cores = 2, std::uint32_t per_l2 = 2)
{
    HierarchyParams h;
    h.numCores = cores;
    h.coresPerL2 = per_l2;
    h.l1i.sizeBytes = 4 * 1024;
    h.l1i.assoc = 4;
    h.l1i.latency = 3;
    h.l1d = h.l1i;
    h.l2.sizeBytes = 32 * 1024;
    h.l2.assoc = 8;
    h.l2.latency = 18;
    h.l2.name = "l2";
    h.llc.sizeBytes = 128 * 1024;
    h.llc.assoc = 8;
    h.llc.latency = 40;
    h.llc.name = "llc";
    h.l1dNextLinePrefetcher = false;
    h.l2GhbPrefetcher = false;
    h.l1iIspyPrefetcher = false;
    return h;
}

MemAccess
load(CoreId core, Addr paddr, Addr pc = 0x400000)
{
    MemAccess a;
    a.core = core;
    a.paddr = paddr;
    a.pc = pc;
    return a;
}

TEST(Hierarchy, ColdMissGoesToDram)
{
    MemoryHierarchy mem(smallHier());
    AccessOutcome out = mem.access(load(0, 0x100000), 0);
    EXPECT_EQ(out.level, HitLevel::Mem);
    EXPECT_GE(out.latency, 140u);
    EXPECT_TRUE(out.llcAccessed);
    EXPECT_FALSE(out.llcHit);
    EXPECT_EQ(mem.dram().reads(), 1u);
}

TEST(Hierarchy, NineFillsAllLevels)
{
    MemoryHierarchy mem(smallHier());
    mem.access(load(0, 0x100000), 0);
    EXPECT_TRUE(mem.l1d(0).contains(0x100000));
    EXPECT_TRUE(mem.l2(0).contains(0x100000));
    EXPECT_TRUE(mem.llc().contains(0x100000));
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    MemoryHierarchy mem(smallHier());
    mem.access(load(0, 0x100000), 0);
    AccessOutcome out = mem.access(load(0, 0x100000), 100000);
    EXPECT_EQ(out.level, HitLevel::L1);
    EXPECT_EQ(out.latency, 3u);
}

TEST(Hierarchy, PendingFillExtendsHitLatency)
{
    MemoryHierarchy mem(smallHier());
    AccessOutcome first = mem.access(load(0, 0x100000), 1000);
    // Immediately re-accessing the in-flight line waits for the fill.
    AccessOutcome second = mem.access(load(0, 0x100000), 1001);
    EXPECT_EQ(second.level, HitLevel::L1);
    EXPECT_GT(second.latency, 3u);
    EXPECT_LE(second.latency, first.latency);
}

TEST(Hierarchy, LlcKeepsCopyAfterPromote)
{
    MemoryHierarchy mem(smallHier());
    mem.access(load(0, 0x100000), 0);
    // Line lives in L1/L2 now; the LLC (non-inclusive) keeps its copy.
    EXPECT_TRUE(mem.llc().contains(0x100000));
}

TEST(Hierarchy, InstrBitPropagatesToLlc)
{
    MemoryHierarchy mem(smallHier());
    MemAccess ifetch = load(0, 0x200000, 0x200000);
    ifetch.isInstr = true;
    mem.access(ifetch, 0);
    const Cache &llc = mem.llc().bank(0);
    bool found = false;
    for (std::uint32_t s = 0; s < llc.numSets() && !found; ++s)
        for (std::uint32_t w = 0; w < llc.assoc() && !found; ++w) {
            const CacheLine &l = llc.lineAt(s, w);
            if (l.valid && (l.tag << kLineShift) == 0x200000) {
                EXPECT_TRUE(l.isInstr);
                found = true;
            }
        }
    EXPECT_TRUE(found);
}

TEST(Hierarchy, DirtyL1EvictionWritesBackToL2)
{
    HierarchyParams h = smallHier();
    h.l1d.sizeBytes = 2 * 64 * 1; // 2 lines, direct-mapped sets
    h.l1d.assoc = 1;
    MemoryHierarchy mem(h);
    MemAccess store = load(0, 0x100000);
    store.isWrite = true;
    mem.access(store, 0);
    // Conflicting line evicts the dirty one into L2.
    mem.access(load(0, 0x100000 + 2 * 64), 100);
    EXPECT_FALSE(mem.l1d(0).contains(0x100000));
    EXPECT_TRUE(mem.l2(0).contains(0x100000));
}

TEST(Hierarchy, WritebackReachesDramOnLlcEviction)
{
    // Tiny LLC forces dirty lines all the way out.
    HierarchyParams h = smallHier();
    h.llc.sizeBytes = 8 * 64;
    h.llc.assoc = 1;
    h.l2.sizeBytes = 8 * 64;
    h.l2.assoc = 1;
    h.l1d.sizeBytes = 2 * 64;
    h.l1d.assoc = 1;
    MemoryHierarchy mem(h);
    MemAccess store = load(0, 0);
    store.isWrite = true;
    mem.access(store, 0);
    // Walk conflicting lines through to flush the dirty line out.
    for (int i = 1; i < 64; ++i)
        mem.access(load(0, Addr(i) * 8 * 64), i * 1000);
    EXPECT_GT(mem.dram().writes(), 0u);
}

TEST(Hierarchy, PrefetchersFillOnlyTheirLevel)
{
    HierarchyParams h = smallHier();
    h.l1dNextLinePrefetcher = true;
    MemoryHierarchy mem(h);
    mem.access(load(0, 0x100000), 0);
    // The next-line prefetch filled L1D but not L2/LLC.
    EXPECT_TRUE(mem.l1d(0).contains(0x100040));
    EXPECT_FALSE(mem.l2(0).contains(0x100040));
    EXPECT_FALSE(mem.llc().contains(0x100040));
}

/** Companion recording every hook invocation. */
class RecordingCompanion : public LlcCompanion
{
  public:
    void
    observeAccess(const MemAccess &acc, bool hit, Cycle) override
    {
        ++accesses;
        if (acc.isInstr && !hit)
            ++instrMisses;
    }
    bool
    shouldProtect(Addr) override
    {
        ++queries;
        return false;
    }
    void
    instrMissPrefetch(Addr, std::vector<Addr> &out) override
    {
        ++prefetchHooks;
        if (emit)
            out.push_back(emitAddr);
    }
    void observeInsert(Addr, bool, bool) override { ++inserts; }
    void observeEvict(Addr, bool) override {}
    unsigned maxProtectAttempts() const override { return 2; }
    Cycle queryCost() const override { return 1; }

    int accesses = 0;
    int instrMisses = 0;
    int queries = 0;
    int prefetchHooks = 0;
    int inserts = 0;
    bool emit = false;
    Addr emitAddr = 0;
};

TEST(Hierarchy, CompanionSeesDemandLlcTraffic)
{
    MemoryHierarchy mem(smallHier());
    RecordingCompanion comp;
    mem.setLlcCompanion(&comp);
    mem.access(load(0, 0x100000), 0);
    EXPECT_EQ(comp.accesses, 1);
    EXPECT_EQ(comp.inserts, 1);
}

TEST(Hierarchy, InstrMissTriggersPairPrefetchHook)
{
    MemoryHierarchy mem(smallHier());
    RecordingCompanion comp;
    comp.emit = true;
    comp.emitAddr = 0x900000;
    mem.setLlcCompanion(&comp);
    MemAccess ifetch = load(0, 0x200000, 0x200000);
    ifetch.isInstr = true;
    mem.access(ifetch, 0);
    EXPECT_EQ(comp.prefetchHooks, 1);
    // The paired data line was brought into the LLC only.
    EXPECT_TRUE(mem.llc().contains(0x900000));
    EXPECT_FALSE(mem.l2(0).contains(0x900000));
}

/** Listener counting demand LLC accesses. */
class CountingListener : public LlcEventListener
{
  public:
    void
    onLlcAccess(const Transaction &txn, bool hit) override
    {
        ++seen;
        lastLine = txn.lineAddr;
        lastHit = hit;
    }
    int seen = 0;
    Addr lastLine = 0;
    bool lastHit = false;
};

TEST(Hierarchy, ListenersReceiveAccesses)
{
    MemoryHierarchy mem(smallHier());
    CountingListener listener;
    mem.addLlcListener(&listener);
    mem.access(load(0, 0x100000), 0);
    mem.access(load(0, 0x110000), 0);
    EXPECT_EQ(listener.seen, 2);
    EXPECT_EQ(listener.lastLine, 0x110000u);
    EXPECT_FALSE(listener.lastHit);
}

TEST(Hierarchy, StatsAggregate)
{
    MemoryHierarchy mem(smallHier());
    mem.access(load(0, 0x100000), 0);
    mem.access(load(1, 0x500000), 0);
    StatSet s = mem.stats();
    EXPECT_EQ(s.get("l1d.accesses"), 2.0);
    EXPECT_EQ(s.get("llc.accesses"), 2.0);
    EXPECT_EQ(s.get("dram.reads"), 2.0);
}

} // namespace
} // namespace garibaldi
