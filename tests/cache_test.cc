/**
 * @file
 * Unit tests for the set-associative cache: geometry, hit/miss paths,
 * eviction/writeback, MSHR pending-merge, the instruction bit, the
 * prefetched bit, the I-oracle mode, way partitioning and the QBS
 * companion hooks; the contention model's MSHR table (PendingTable)
 * against a std::map reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/audit.hh"
#include "common/rng.hh"
#include "mem/cache.hh"

namespace garibaldi
{
namespace
{

MemAccess
makeAccess(Addr paddr, bool instr = false, bool write = false,
           Addr pc = 0x1000)
{
    MemAccess a;
    a.paddr = paddr;
    a.isInstr = instr;
    a.isWrite = write;
    a.pc = pc;
    return a;
}

CacheParams
smallParams(std::uint32_t assoc = 4, std::uint64_t size = 4 * 1024)
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = size;
    p.assoc = assoc;
    p.latency = 3;
    p.policy = PolicyKind::LRU;
    return p;
}

TEST(Cache, GeometryDerivation)
{
    Cache c(smallParams(4, 4 * 1024)); // 64 lines / 4 ways
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.assoc(), 4u);
}

TEST(Cache, MissThenHit)
{
    Cache c(smallParams());
    MemAccess a = makeAccess(0x1000);
    EXPECT_FALSE(c.access(a));
    c.insert(a);
    EXPECT_TRUE(c.access(a));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameLineDifferentBytesHit)
{
    Cache c(smallParams());
    c.insert(makeAccess(0x1000));
    EXPECT_TRUE(c.access(makeAccess(0x103f)));
    EXPECT_FALSE(c.access(makeAccess(0x1040))); // next line
}

TEST(Cache, LruEvictionOrder)
{
    Cache c(smallParams(2, 2 * 64 * 4)); // 4 sets, 2 ways
    // Three lines mapping to the same set: set stride = 4 lines.
    Addr a0 = 0, a1 = 4 * 64, a2 = 8 * 64;
    c.insert(makeAccess(a0));
    c.insert(makeAccess(a1));
    c.access(makeAccess(a0)); // a0 becomes MRU
    Eviction ev = c.insert(makeAccess(a2));
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, a1); // LRU victim
    EXPECT_TRUE(c.contains(a0));
    EXPECT_FALSE(c.contains(a1));
    EXPECT_TRUE(c.contains(a2));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(smallParams(1, 64 * 2)); // 2 sets, direct-mapped
    c.insert(makeAccess(0x0, false, true)); // store-allocate: dirty
    Eviction ev = c.insert(makeAccess(2 * 64)); // same set
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.stats().writebacksOut, 1u);
}

TEST(Cache, StoreHitSetsDirty)
{
    Cache c(smallParams(1, 64 * 2));
    c.insert(makeAccess(0x0));
    EXPECT_TRUE(c.access(makeAccess(0x0, false, true)));
    Eviction ev = c.insert(makeAccess(2 * 64));
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, InstrBitTracked)
{
    Cache c(smallParams(1, 64 * 2));
    c.insert(makeAccess(0x0, /*instr=*/true));
    Eviction ev = c.insert(makeAccess(2 * 64));
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.isInstr);
    EXPECT_EQ(c.stats().instrEvictions, 1u);
}

TEST(Cache, PrefetchBitClearedOnDemandHit)
{
    Cache c(smallParams());
    MemAccess pf = makeAccess(0x1000);
    pf.isPrefetch = true;
    c.insert(pf);
    EXPECT_EQ(c.stats().prefetchInserts, 1u);
    EXPECT_TRUE(c.access(makeAccess(0x1000)));
    EXPECT_EQ(c.stats().prefetchUseful, 1u);
    // Second demand hit does not double count.
    EXPECT_TRUE(c.access(makeAccess(0x1000)));
    EXPECT_EQ(c.stats().prefetchUseful, 1u);
}

TEST(Cache, PrefetchAccessDoesNotCountStats)
{
    Cache c(smallParams());
    MemAccess pf = makeAccess(0x1000);
    pf.isPrefetch = true;
    EXPECT_FALSE(c.access(pf));
    EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(Cache, PendingMergeReportsReadyTime)
{
    Cache c(smallParams());
    c.insert(makeAccess(0x1000));
    c.addPending(0x1000, 500);
    EXPECT_EQ(c.pendingReady(0x1000, 100), 500u);
    EXPECT_EQ(c.stats().mshrMerges, 1u);
    // After the ready time the entry is pruned.
    EXPECT_EQ(c.pendingReady(0x1000, 600), 0u);
    EXPECT_EQ(c.pendingReady(0x1000, 700), 0u);
}

TEST(Cache, MshrsFullDetection)
{
    CacheParams p = smallParams();
    p.mshrs = 2;
    Cache c(p);
    c.insert(makeAccess(0x1000));
    c.addPending(0x1000, 1000);
    EXPECT_FALSE(c.mshrsFull(0));
    c.insert(makeAccess(0x2000));
    c.addPending(0x2000, 1000);
    EXPECT_TRUE(c.mshrsFull(0));
    // Completed fills free MSHRs.
    EXPECT_FALSE(c.mshrsFull(2000));
}

/**
 * PendingTable against a std::map reference holding every booking no
 * query has yet seen complete.  The query clock wanders behind a rising
 * high-water mark by less than kExpirySlack, the simulator's bound, so
 * compaction may drop long-expired bookings but never visibly: every
 * get-and-erase answer (Cache::pendingReady) matches, the table holds
 * exactly the reference entries compaction did not drop, and after each
 * prune its size() equals the reference's in-flight count.  The first
 * half of the stream never prunes, so stale expiry records pile up
 * until set() rebuilds the heap; the second half adds prunes.
 */
TEST(PendingTable, MatchesMapReference)
{
    // Record compaction drops so the audit book is checked too.
    audit::setEnabled(audit::kCompiledIn);
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        PendingTable pt(8);
        std::map<Addr, Cycle> ref;
        Pcg32 rng(seed, 11);
        Cycle high = 0;
        std::size_t prunes = 0;
        std::size_t max_dropped = 0;
        constexpr int kSteps = 200000;
        for (int step = 0; step < kSteps; ++step) {
            high += rng.nextBounded(32);
            Cycle back = rng.nextBounded(
                static_cast<std::uint32_t>(PendingTable::kExpirySlack / 2));
            Cycle now = high > back ? high - back : 0;
            Addr key = rng.nextBounded(1 << 14);
            std::uint32_t op = rng.nextBounded(20);
            if (op < 9) {
                Cycle ready = now + 1 + rng.nextBounded(4000);
                pt.set(key, ready);
                ref[key] = ready;
            } else if (op < 18 || step < kSteps / 2) {
                Cycle got = pt.get(key);
                if (got != 0 && got <= now) {
                    pt.erase(key);
                    got = 0;
                }
                if (got == 0) {
                    EXPECT_LE(pt.droppedReady(key), now) << "step " << step;
                }
                auto it = ref.find(key);
                Cycle want = 0;
                if (it != ref.end()) {
                    if (it->second <= now)
                        ref.erase(it);
                    else
                        want = it->second;
                }
                ASSERT_EQ(got, want) << "step " << step << " key " << key;
            } else {
                pt.pruneExpired(now);
                for (auto it = ref.begin(); it != ref.end();)
                    it = it->second <= now ? ref.erase(it) : std::next(it);
                ++prunes;
                ASSERT_EQ(pt.size(), ref.size()) << "step " << step;
            }
            ASSERT_LE(pt.size(), ref.size()) << "step " << step;
            if (step % 1024 == 0 || step == kSteps - 1) {
                // Whatever the table lacks, compaction dropped: same
                // ready time, long expired.
                std::size_t dropped = 0;
                for (const auto &[k, ready] : ref) {
                    Cycle got = pt.get(k);
                    if (got == 0) {
                        ++dropped;
                        ASSERT_LE(ready + PendingTable::kExpirySlack,
                                  high + 4000)
                            << "step " << step << " key " << k;
                        if (audit::kCompiledIn) {
                            ASSERT_EQ(pt.droppedReady(k), ready);
                        }
                    } else {
                        ASSERT_EQ(got, ready);
                    }
                }
                ASSERT_EQ(pt.size(), ref.size() - dropped) << "step " << step;
                max_dropped = std::max(max_dropped, dropped);
            }
        }
        EXPECT_GT(prunes, 1000u);
        EXPECT_GT(max_dropped, 0u) << "stream never exercised a drop";
    }
    audit::setEnabled(false);
}

TEST(Cache, OracleInstrAlwaysHitsAfterFirstTouch)
{
    CacheParams p = smallParams();
    p.instrOracle = true;
    Cache c(p);
    MemAccess i = makeAccess(0x5000, /*instr=*/true);
    EXPECT_FALSE(c.access(i)); // first touch misses
    EXPECT_TRUE(c.access(i));  // always hits afterwards
    EXPECT_TRUE(c.access(i));
    // And consumes no array capacity.
    c.insert(i);
    EXPECT_FALSE(c.contains(0x5000));
}

TEST(Cache, OracleDataUnaffected)
{
    CacheParams p = smallParams();
    p.instrOracle = true;
    Cache c(p);
    MemAccess d = makeAccess(0x5000);
    EXPECT_FALSE(c.access(d));
    c.insert(d);
    EXPECT_TRUE(c.access(d));
}

TEST(Cache, PartitionSeparatesClasses)
{
    CacheParams p = smallParams(4, 4 * 64 * 1); // 1 set, 4 ways
    p.instrPartitionWays = 2;
    Cache c(p);
    // Fill instruction region (ways 0-1) with critical lines.
    c.insert(makeAccess(0 * 64, true), false, /*critical=*/true);
    c.insert(makeAccess(1 * 64, true), false, /*critical=*/true);
    // Fill data region (ways 2-3).
    c.insert(makeAccess(2 * 64, false));
    c.insert(makeAccess(3 * 64, false));
    // A new data line must evict a data line, not an instruction.
    Eviction ev = c.insert(makeAccess(4 * 64, false));
    ASSERT_TRUE(ev.valid);
    EXPECT_FALSE(ev.isInstr);
    // A new critical instruction line must evict an instruction line.
    ev = c.insert(makeAccess(5 * 64, true), false, /*critical=*/true);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.isInstr);
}

TEST(Cache, PartitionCriticalFilterRoutesNonCriticalToData)
{
    CacheParams p = smallParams(4, 4 * 64 * 1);
    p.instrPartitionWays = 2;
    Cache c(p);
    c.insert(makeAccess(2 * 64, false));
    c.insert(makeAccess(3 * 64, false));
    // Non-critical instruction competes with data ways.
    Eviction ev = c.insert(makeAccess(6 * 64, true), false,
                           /*critical=*/false);
    ASSERT_TRUE(ev.valid);
    EXPECT_FALSE(ev.isInstr);
    EXPECT_EQ(c.stats().partitionInstrInserts, 0u);
    // Critical instruction claims the instruction region.
    ev = c.insert(makeAccess(7 * 64, true), false, /*critical=*/true);
    EXPECT_EQ(c.stats().partitionInstrInserts, 1u);
}

/** Companion that protects one specific line address. */
class OneLineProtector : public LlcCompanion
{
  public:
    explicit OneLineProtector(Addr line) : target(line) {}

    void observeAccess(const MemAccess &, bool, Cycle) override {}
    bool
    shouldProtect(Addr victim) override
    {
        ++queries;
        return victim == target;
    }
    void instrMissPrefetch(Addr, std::vector<Addr> &) override {}
    void observeInsert(Addr, bool, bool) override { ++inserts; }
    void observeEvict(Addr, bool) override { ++evicts; }
    unsigned maxProtectAttempts() const override { return 2; }
    Cycle queryCost() const override { return 1; }

    Addr target;
    int queries = 0;
    int inserts = 0;
    int evicts = 0;
};

TEST(Cache, QbsProtectionRedirectsEviction)
{
    CacheParams p = smallParams(2, 2 * 64 * 1); // 1 set, 2 ways
    Cache c(p);
    OneLineProtector guard(0 * 64);
    c.setCompanion(&guard);
    c.insert(makeAccess(0 * 64, true));  // protected line, will be LRU
    c.insert(makeAccess(1 * 64, true));
    Eviction ev = c.insert(makeAccess(2 * 64, false));
    ASSERT_TRUE(ev.valid);
    // LRU would pick line 0; QBS protects it, so line 1 goes.
    EXPECT_EQ(ev.lineAddr, Addr{1 * 64});
    EXPECT_TRUE(c.contains(0));
    EXPECT_GE(guard.queries, 1);
    EXPECT_EQ(c.stats().qbsProtections, 1u);
    EXPECT_GT(c.drainQbsCycles(), 0u);
}

TEST(Cache, QbsMaxAttemptsBoundsProtection)
{
    CacheParams p = smallParams(4, 4 * 64 * 1); // 1 set, 4 ways
    Cache c(p);
    // Protect everything: after maxProtectAttempts (2) promotions the
    // next candidate is evicted regardless.
    class ProtectAll : public OneLineProtector
    {
      public:
        ProtectAll() : OneLineProtector(0) {}
        bool
        shouldProtect(Addr) override
        {
            ++queries;
            return true;
        }
    } guard;
    c.setCompanion(&guard);
    for (Addr i = 0; i < 4; ++i)
        c.insert(makeAccess(i * 64, true));
    Eviction ev = c.insert(makeAccess(4 * 64, true));
    EXPECT_TRUE(ev.valid); // something was still evicted
    EXPECT_EQ(guard.queries, 2);
}

TEST(Cache, QbsNotConsultedForDataVictims)
{
    CacheParams p = smallParams(1, 64 * 1); // direct mapped, 1 set
    Cache c(p);
    OneLineProtector guard(0);
    guard.target = 0;
    c.setCompanion(&guard);
    c.insert(makeAccess(0 * 64, false)); // data line
    c.insert(makeAccess(1 * 64, false));
    EXPECT_EQ(guard.queries, 0);
}

TEST(Cache, CompanionSeesInsertsAndEvicts)
{
    CacheParams p = smallParams(1, 64 * 1);
    Cache c(p);
    OneLineProtector guard(~Addr{0});
    c.setCompanion(&guard);
    c.insert(makeAccess(0 * 64));
    c.insert(makeAccess(1 * 64));
    EXPECT_EQ(guard.inserts, 2);
    EXPECT_EQ(guard.evicts, 1);
}

TEST(Cache, InsertExistingLineMergesDirty)
{
    Cache c(smallParams(1, 64 * 2));
    c.insert(makeAccess(0x0));
    Eviction ev = c.insert(makeAccess(0x0), /*dirty=*/true);
    EXPECT_FALSE(ev.valid);
    ev = c.insert(makeAccess(2 * 64)); // same set: displaces the line
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, RejectsBadGeometry)
{
    CacheParams p = smallParams();
    p.instrPartitionWays = p.assoc; // no data ways left
    EXPECT_EXIT({ Cache c(p); }, testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace garibaldi
