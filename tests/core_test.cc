/**
 * @file
 * Core-side tests: page table determinism, TLB hierarchy, TAGE branch
 * prediction, and the interval core model's CPI accounting.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/intmath.hh"
#include "common/rng.hh"
#include "core/branch/tage.hh"
#include "core/core_model.hh"
#include "core/page_table.hh"
#include "core/tlb.hh"

namespace garibaldi
{
namespace
{

// --------------------------------------------------------------------
// Page table
// --------------------------------------------------------------------

TEST(PageTable, TranslationIsStable)
{
    PageTable pt(0, 42);
    Addr p1 = pt.translate(0x12345678);
    Addr p2 = pt.translate(0x12345678);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(pageOffset(p1), pageOffset(Addr{0x12345678}));
}

TEST(PageTable, DistinctPagesDistinctFrames)
{
    PageTable pt(0, 42);
    std::set<Addr> frames;
    for (Addr v = 0; v < 256; ++v)
        frames.insert(pt.frameOf(v));
    EXPECT_EQ(frames.size(), 256u);
}

TEST(PageTable, CoresOccupyDisjointZones)
{
    PageTable pt0(0, 42), pt1(1, 42);
    std::set<Addr> f0, f1;
    for (Addr v = 0; v < 128; ++v) {
        f0.insert(pt0.frameOf(v));
        f1.insert(pt1.frameOf(v));
    }
    for (Addr f : f0)
        EXPECT_EQ(f1.count(f), 0u);
}

TEST(PageTable, WithinPhysicalAddressSpace)
{
    PageTable pt(39, 7); // worst-case zone
    for (Addr v = 0; v < 64; ++v)
        EXPECT_LE(pt.translate(v << kPageShift), kPhysAddrMask);
}

// --------------------------------------------------------------------
// TLB
// --------------------------------------------------------------------

TEST(Tlb, HitAfterInsert)
{
    Tlb t(16, 4);
    EXPECT_FALSE(t.access(0x100));
    EXPECT_TRUE(t.access(0x100));
    EXPECT_EQ(t.hits(), 1u);
    EXPECT_EQ(t.misses(), 1u);
}

TEST(Tlb, LruWithinSet)
{
    Tlb t(4, 4); // one set
    for (Addr v = 0; v < 4; ++v)
        t.access(v);
    t.access(0); // refresh 0
    t.access(100); // evicts LRU (1)
    EXPECT_TRUE(t.access(0));
    EXPECT_FALSE(t.access(1));
}

/** The per-entry 64-bit tick LRU that Tlb's recency stamps replace. */
class TickLruTlb
{
  public:
    TickLruTlb(std::uint32_t sets, std::uint32_t assoc)
        : numSets(sets), ways(assoc), entries(std::size_t{sets} * assoc)
    {}

    bool
    access(Addr vpn)
    {
        Entry *base =
            &entries[static_cast<std::size_t>(mix64(vpn) % numSets) *
                     ways];
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (base[w].valid && base[w].vpn == vpn) {
                base[w].lastUse = ++tick;
                return true;
            }
        }
        Entry *lru = base;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!base[w].valid) {
                lru = &base[w];
                break;
            }
            if (base[w].lastUse < lru->lastUse)
                lru = &base[w];
        }
        *lru = {vpn, ++tick, true};
        return false;
    }

  private:
    struct Entry
    {
        Addr vpn = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint32_t numSets;
    std::uint32_t ways;
    std::vector<Entry> entries;
    std::uint64_t tick = 0;
};

TEST(Tlb, MatchesTickLruReference)
{
    for (std::uint32_t assoc : {4u, 6u, 8u, 12u}) {
        for (std::uint32_t sets : {1u, 3u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << assoc << "-way, " << sets << " sets");
            Tlb t(sets * assoc, assoc);
            TickLruTlb ref(sets, assoc);
            Pcg32 rng(assoc, sets);
            // Twice the capacity, vpn 0 included: misses evict, and the
            // 20000 touches re-rank every set's stamps many times.
            for (int i = 0; i < 20000; ++i) {
                Addr vpn = rng.nextBounded(2 * sets * assoc);
                ASSERT_EQ(t.access(vpn), ref.access(vpn)) << "step " << i;
            }
        }
    }
}

TEST(TlbHierarchy, CostsPerLevel)
{
    TlbHierarchy::Params p;
    p.itlbEntries = 16;
    p.dtlbEntries = 12;
    p.stlbEntries = 64;
    p.stlbAssoc = 4;
    TlbHierarchy h(p);
    // First touch: full walk.
    EXPECT_EQ(h.accessData(0x1), p.walkCost);
    // Now in both DTLB and STLB: free.
    EXPECT_EQ(h.accessData(0x1), 0u);
    // Push 0x1 out of the small DTLB but not the STLB.
    for (Addr v = 0x10; v < 0x10 + 32; ++v)
        h.accessData(v);
    Cycle c = h.accessData(0x1);
    EXPECT_TRUE(c == p.stlbHitCost || c == p.walkCost);
}

TEST(TlbHierarchy, InstrAndDataSeparateFirstLevels)
{
    TlbHierarchy h(TlbHierarchy::Params{});
    h.accessInstr(0x5);
    // Data side never saw 0x5 in its first level, but the shared STLB
    // has it: cost is the STLB hit, not a walk.
    EXPECT_EQ(h.accessData(0x5), TlbHierarchy::Params{}.stlbHitCost);
}

// --------------------------------------------------------------------
// TAGE
// --------------------------------------------------------------------

TEST(Tage, LearnsStronglyBiasedBranch)
{
    TagePredictor bp;
    Addr pc = 0x4000;
    for (int i = 0; i < 64; ++i)
        bp.resolve(pc, true);
    int correct = 0;
    for (int i = 0; i < 100; ++i)
        correct += bp.resolve(pc, true) == true;
    EXPECT_GT(correct, 95);
}

TEST(Tage, LearnsAlternatingPattern)
{
    TagePredictor bp;
    Addr pc = 0x4040;
    bool dir = false;
    // Alternation is history-predictable: tagged tables must catch it.
    for (int i = 0; i < 2000; ++i) {
        bp.resolve(pc, dir);
        dir = !dir;
    }
    int correct = 0;
    for (int i = 0; i < 200; ++i) {
        correct += bp.resolve(pc, dir) == dir;
        dir = !dir;
    }
    EXPECT_GT(correct, 150);
}

TEST(Tage, IndirectTargetsLearned)
{
    TagePredictor bp;
    Addr pc = 0x5000, target = 0x9000;
    for (int i = 0; i < 8; ++i)
        bp.updateIndirect(pc, target);
    EXPECT_EQ(bp.predictIndirect(pc), target);
}

TEST(Tage, StatsAccumulate)
{
    TagePredictor bp;
    for (int i = 0; i < 10; ++i)
        bp.resolve(0x100, true);
    EXPECT_EQ(bp.stats().get("lookups"), 10.0);
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Drive @p bp with a deterministic branch stream and fold every
 * prediction and the final stats into FNV-1a.  Conditional branches
 * come from 512 PCs in five behaviour classes (always taken, never
 * taken, alternating, period-5 loop, coin flip), so the base table,
 * every tagged table, allocation and the useful counters all take
 * part; indirect branches come from 64 PCs with one to four targets.
 */
std::uint64_t
tageTraceHash()
{
    TagePredictor bp;
    Pcg32 rng(2024, 17);
    std::vector<std::uint32_t> visits(512, 0);
    std::uint64_t h = 14695981039346656037ull;
    for (int i = 0; i < 200000; ++i) {
        if ((rng.next() & 15) == 0) {
            std::uint32_t k = rng.nextBounded(64);
            Addr pc = 0x300000 + Addr{k} * 0x40;
            Addr target = 0x500000 + Addr{rng.nextBounded(1 + (k & 3))}
                                         * 0x1000 + Addr{k} * 0x40;
            h = fnv1a(h, bp.predictIndirect(pc));
            bp.updateIndirect(pc, target);
            continue;
        }
        std::uint32_t k = rng.nextBounded(512);
        Addr pc = 0x400000 + Addr{k} * 0x24;
        std::uint32_t n = visits[k]++;
        bool taken;
        switch (k % 5) {
          case 0: taken = true; break;
          case 1: taken = false; break;
          case 2: taken = n & 1; break;
          case 3: taken = n % 5 != 4; break;
          default: taken = rng.chance(0.5); break;
        }
        h = fnv1a(h, bp.resolve(pc, taken) ? 1 : 0);
    }
    StatSet s = bp.stats();
    for (const char *name : {"lookups", "correct", "allocations",
                             "indirect_lookups", "indirect_correct"})
        h = fnv1a(h, static_cast<std::uint64_t>(s.get(name)));
    return h;
}

// Pins every decision of the predictor, not just what it learns: the
// constant was recorded from the implementation with 24-byte tagged
// entries and SatCounter tables, before they were packed, which made
// each prediction and its training two separate lookups.
TEST(Tage, DecisionTraceHashPinned)
{
    EXPECT_EQ(tageTraceHash(), 13972142726612516992ull);
}

// --------------------------------------------------------------------
// Interval core model (driven through a real small hierarchy)
// --------------------------------------------------------------------

HierarchyParams
tinyHierarchy()
{
    HierarchyParams h;
    h.numCores = 1;
    h.coresPerL2 = 1;
    h.l1i.sizeBytes = 4 * 1024;
    h.l1i.assoc = 4;
    h.l1i.latency = 3;
    h.l1d = h.l1i;
    h.l2.sizeBytes = 32 * 1024;
    h.l2.assoc = 8;
    h.l2.latency = 18;
    h.llc.sizeBytes = 128 * 1024;
    h.llc.assoc = 8;
    h.llc.latency = 40;
    h.l1dNextLinePrefetcher = false;
    h.l2GhbPrefetcher = false;
    h.l1iIspyPrefetcher = false;
    return h;
}

MicroOp
plainOp(Addr pc)
{
    MicroOp op;
    op.pc = pc;
    return op;
}

TEST(CoreModel, BaseCpiMatchesIssueWidth)
{
    MemoryHierarchy mem(tinyHierarchy());
    CoreParams cp;
    cp.issueWidth = 4;
    CoreModel core(0, cp, mem, 1);
    // Warm the fetch path, then measure: same-line straight-line code
    // retires at the issue width.
    for (int i = 0; i < 100; ++i)
        core.step(plainOp(0x1000 + (i % 8) * 4));
    core.resetStats();
    for (int i = 0; i < 4000; ++i)
        core.step(plainOp(0x1000 + (i % 8) * 4));
    double cpi = static_cast<double>(core.windowCycles()) /
                 core.stats().instructions;
    EXPECT_NEAR(cpi, 0.25, 0.02);
}

TEST(CoreModel, MispredictsChargeBranchComponent)
{
    MemoryHierarchy mem(tinyHierarchy());
    CoreParams cp;
    CoreModel core(0, cp, mem, 1);
    Pcg32 rng(3, 3);
    for (int i = 0; i < 2000; ++i) {
        MicroOp op = plainOp(0x1000);
        op.isBranch = true;
        op.branchTaken = rng.chance(0.5); // unpredictable
        core.step(op);
    }
    EXPECT_GT(core.stats().mispredicts, 400u);
    EXPECT_GT(core.stats().cpi.of(CpiComponent::Branch), 0u);
    EXPECT_EQ(core.stats().cpi.of(CpiComponent::Branch),
              core.stats().mispredicts * cp.mispredictPenalty);
}

TEST(CoreModel, FetchChargedOncePerLine)
{
    MemoryHierarchy mem(tinyHierarchy());
    CoreModel core(0, CoreParams{}, mem, 1);
    // 16 instructions in one line: one line fetch.
    for (int i = 0; i < 16; ++i)
        core.step(plainOp(0x8000 + i * 4));
    EXPECT_EQ(core.stats().ifetchLines, 1u);
    core.step(plainOp(0x8040));
    EXPECT_EQ(core.stats().ifetchLines, 2u);
}

TEST(CoreModel, ColdLoadsChargeDataComponents)
{
    MemoryHierarchy mem(tinyHierarchy());
    CoreParams cp;
    cp.dependentLoadFraction = 1.0; // serialize: every miss fully paid
    CoreModel core(0, cp, mem, 1);
    for (int i = 0; i < 256; ++i) {
        MicroOp op = plainOp(0x1000 + (i % 4) * 4);
        op.mem = MicroOp::MemKind::Load;
        op.vaddr = 0x100000 + Addr(i) * 4096; // new page every load
        core.step(op);
    }
    const CpiStack &s = core.stats().cpi;
    EXPECT_GT(s.of(CpiComponent::DataMem), 0u);
    EXPECT_GT(s.of(CpiComponent::Dtlb), 0u);
}

TEST(CoreModel, MlpOverlapsIndependentMisses)
{
    // Two identical cores except for the dependence fraction; the
    // dependent one must stall strictly more.
    MemoryHierarchy mem_a(tinyHierarchy());
    MemoryHierarchy mem_b(tinyHierarchy());
    CoreParams independent;
    independent.dependentLoadFraction = 0.0;
    CoreParams dependent;
    dependent.dependentLoadFraction = 1.0;
    CoreModel core_a(0, independent, mem_a, 1);
    CoreModel core_b(0, dependent, mem_b, 1);
    for (int i = 0; i < 512; ++i) {
        MicroOp op = plainOp(0x1000);
        op.mem = MicroOp::MemKind::Load;
        op.vaddr = 0x200000 + Addr(i) * kLineBytes;
        core_a.step(op);
        core_b.step(op);
    }
    EXPECT_LT(core_a.stats().cpi.dataCycles(),
              core_b.stats().cpi.dataCycles());
}

TEST(CoreModel, StoresCheaperThanLoads)
{
    MemoryHierarchy mem_a(tinyHierarchy());
    MemoryHierarchy mem_b(tinyHierarchy());
    CoreParams cp;
    cp.dependentLoadFraction = 1.0;
    CoreModel loads(0, cp, mem_a, 1);
    CoreModel stores(0, cp, mem_b, 1);
    for (int i = 0; i < 256; ++i) {
        MicroOp op = plainOp(0x1000);
        op.vaddr = 0x200000 + Addr(i) * kLineBytes;
        op.mem = MicroOp::MemKind::Load;
        loads.step(op);
        op.mem = MicroOp::MemKind::Store;
        stores.step(op);
    }
    EXPECT_LT(stores.now(), loads.now());
}

TEST(CoreModel, ResetStatsStartsFreshWindow)
{
    MemoryHierarchy mem(tinyHierarchy());
    CoreModel core(0, CoreParams{}, mem, 1);
    for (int i = 0; i < 100; ++i)
        core.step(plainOp(0x1000 + i * 4));
    core.resetStats();
    EXPECT_EQ(core.stats().instructions, 0u);
    EXPECT_EQ(core.windowCycles(), 0u);
    core.step(plainOp(0x1000));
    EXPECT_EQ(core.stats().instructions, 1u);
}

} // namespace
} // namespace garibaldi
