/**
 * @file
 * Property tests: structural cache invariants under randomized access
 * streams, for every replacement policy (parameterized), plus pair
 * table invariants under random update/query interleavings.
 *
 * These catch classes of bugs single-scenario unit tests miss: state
 * corruption that only appears after long histories, tag aliasing,
 * counter wraparound and eviction bookkeeping drift.  The LRU cache is
 * also checked access by access against a naive vector-of-lines model.
 * The flat line-keyed tables are checked against std::map references.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hh"
#include "garibaldi/dppn_table.hh"
#include "garibaldi/pair_table.hh"
#include "mem/cache.hh"
#include "mem/flat_tables.hh"

namespace garibaldi
{
namespace
{

class CachePropertyTest : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    static CacheParams
    params(PolicyKind kind)
    {
        CacheParams p;
        p.name = "prop";
        p.sizeBytes = 16 * 1024; // 256 lines
        p.assoc = 8;             // 32 sets
        p.policy = kind;
        p.policyParams.sampleShift = 1;
        return p;
    }
};

TEST_P(CachePropertyTest, NoDuplicateTagsWithinSets)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(17, 1);
    for (int i = 0; i < 20000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.nextBounded(1024)} << kLineShift;
        a.pc = rng.next() & ~3u;
        a.isInstr = rng.chance(0.3);
        a.isWrite = rng.chance(0.2);
        if (!cache.access(a))
            cache.insert(a);
    }
    for (std::uint32_t s = 0; s < cache.numSets(); ++s) {
        std::set<Addr> tags;
        for (std::uint32_t w = 0; w < cache.assoc(); ++w) {
            const CacheLine &l = cache.lineAt(s, w);
            if (l.valid) {
                EXPECT_TRUE(tags.insert(l.tag).second)
                    << "duplicate tag in set " << s;
            }
        }
    }
}

TEST_P(CachePropertyTest, LinesMapToTheirSet)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(23, 2);
    for (int i = 0; i < 10000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.next()} << kLineShift;
        a.pc = rng.next();
        if (!cache.access(a))
            cache.insert(a);
    }
    for (std::uint32_t s = 0; s < cache.numSets(); ++s)
        for (std::uint32_t w = 0; w < cache.assoc(); ++w) {
            const CacheLine &l = cache.lineAt(s, w);
            if (l.valid) {
                EXPECT_EQ(cache.setOf(l.tag << kLineShift), s);
            }
        }
}

TEST_P(CachePropertyTest, AccountingBalances)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(31, 3);
    std::uint64_t inserts = 0;
    for (int i = 0; i < 30000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.nextBounded(2048)} << kLineShift;
        a.pc = rng.next() & ~3u;
        if (!cache.access(a)) {
            cache.insert(a);
            ++inserts;
        }
    }
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    // Every insertion either filled an invalid frame or evicted:
    // resident lines = inserts - evictions.
    std::uint64_t resident = 0;
    for (std::uint32_t set = 0; set < cache.numSets(); ++set)
        for (std::uint32_t w = 0; w < cache.assoc(); ++w)
            resident += cache.lineAt(set, w).valid;
    EXPECT_EQ(resident, inserts - s.evictions);
    EXPECT_LE(resident,
              std::uint64_t{cache.numSets()} * cache.assoc());
}

TEST_P(CachePropertyTest, HitAfterInsertUntilEvicted)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(41, 4);
    // Shadow model: track the resident set via eviction results.
    std::unordered_set<Addr> resident;
    for (int i = 0; i < 20000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.nextBounded(512)} << kLineShift;
        a.pc = rng.next() & ~3u;
        bool hit = cache.access(a);
        EXPECT_EQ(hit, resident.count(a.lineAddr()) != 0)
            << "iteration " << i;
        if (!hit) {
            Eviction ev = cache.insert(a);
            resident.insert(a.lineAddr());
            if (ev.valid)
                resident.erase(ev.lineAddr);
        }
    }
}

TEST_P(CachePropertyTest, DirtyOnlyIfWritten)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(43, 5);
    std::unordered_set<Addr> written;
    for (int i = 0; i < 20000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.nextBounded(1024)} << kLineShift;
        a.pc = rng.next() & ~3u;
        a.isWrite = rng.chance(0.25);
        if (a.isWrite)
            written.insert(a.lineAddr());
        if (!cache.access(a)) {
            Eviction ev = cache.insert(a);
            if (ev.valid && ev.dirty) {
                EXPECT_TRUE(written.count(ev.lineAddr))
                    << "clean line evicted dirty";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CachePropertyTest,
    ::testing::Values(PolicyKind::LRU, PolicyKind::Random,
                      PolicyKind::SRRIP, PolicyKind::DRRIP,
                      PolicyKind::SHiP, PolicyKind::Hawkeye,
                      PolicyKind::Mockingjay),
    [](const ::testing::TestParamInfo<PolicyKind> &pinfo) {
        return std::string(policyKindName(pinfo.param));
    });

// --------------------------------------------------------------------
// Differential test: Cache (LRU) against an obviously correct model.
// --------------------------------------------------------------------

/**
 * Vector-of-lines LRU cache with the Cache's observable semantics:
 * demand hits and fills refresh recency, prefetch hits do not; a fill
 * takes the lowest invalid way, else the least recent way; with way
 * partitioning, instruction lines live in ways [0, P) and the rest in
 * [P, assoc), each region choosing its own victim.
 */
class NaiveLruCache
{
  public:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        bool dirty = false;
        bool isInstr = false;
        bool prefetched = false;
        std::uint64_t used = 0;
    };

    NaiveLruCache(std::uint32_t sets, std::uint32_t ways,
                  std::uint32_t instr_ways)
        : lines(sets, std::vector<Line>(ways)), instrWays(instr_ways)
    {
    }

    bool
    access(const MemAccess &a)
    {
        Line *l = find(a.lineAddr());
        if (l && !a.isPrefetch) {
            l->used = ++tick;
            l->dirty = l->dirty || a.isWrite;
            l->prefetched = false;
        }
        return l != nullptr;
    }

    /** @return the eviction; @p way receives the filled way. */
    Eviction
    insert(const MemAccess &a, bool dirty, std::uint32_t &way)
    {
        way = ~0u;
        if (Line *l = find(a.lineAddr())) {
            l->dirty = l->dirty || dirty || a.isWrite;
            return {};
        }
        std::vector<Line> &set = setOf(a.lineAddr());
        std::uint32_t lo = 0;
        std::uint32_t hi = static_cast<std::uint32_t>(set.size());
        if (instrWays > 0)
            (a.isInstr ? hi : lo) = instrWays;
        for (std::uint32_t w = lo; w < hi && way == ~0u; ++w)
            if (!set[w].valid)
                way = w;
        if (way == ~0u) {
            way = lo;
            for (std::uint32_t w = lo; w < hi; ++w)
                if (set[w].used < set[way].used)
                    way = w;
        }
        Line &v = set[way];
        Eviction ev;
        if (v.valid)
            ev = {true, v.tag << kLineShift, v.dirty, v.isInstr};
        v = {true, lineNumber(a.lineAddr()), dirty || a.isWrite,
             a.isInstr, a.isPrefetch, ++tick};
        return ev;
    }

    const Line &at(std::uint32_t set, std::uint32_t way) const
    {
        return lines[set][way];
    }

  private:
    std::vector<Line> &
    setOf(Addr line_addr)
    {
        return lines[lineNumber(line_addr) % lines.size()];
    }

    Line *
    find(Addr line_addr)
    {
        for (Line &l : setOf(line_addr))
            if (l.valid && l.tag == lineNumber(line_addr))
                return &l;
        return nullptr;
    }

    std::vector<std::vector<Line>> lines;
    std::uint32_t instrWays;
    std::uint64_t tick = 0;
};

TEST(CacheDifferential, MatchesNaiveLruModel)
{
    for (std::uint32_t instr_ways : {0u, 3u}) {
        SCOPED_TRACE(instr_ways);
        CacheParams p;
        p.name = "diff";
        p.sizeBytes = 16 * 1024; // 256 lines
        p.assoc = 8;             // 32 sets
        p.policy = PolicyKind::LRU;
        p.instrPartitionWays = instr_ways;
        Cache cache(p);
        NaiveLruCache ref(cache.numSets(), cache.assoc(), instr_ways);
        Pcg32 rng(61 + instr_ways, 9);
        for (int i = 0; i < 100000; ++i) {
            MemAccess a;
            a.paddr = Addr{rng.nextBounded(1024)} << kLineShift;
            a.pc = rng.next() & ~3u;
            a.isInstr = rng.chance(0.3);
            a.isWrite = !a.isInstr && rng.chance(0.2);
            a.isPrefetch = rng.chance(0.1);
            bool hit = cache.access(a);
            ASSERT_EQ(hit, ref.access(a)) << "step " << i;
            // Occasionally re-insert a resident line, as a writeback
            // into a still-resident line does: it only merges dirty.
            if (hit && !rng.chance(0.05))
                continue;
            bool dirty = rng.chance(0.1);
            std::uint32_t want_way;
            Eviction want = ref.insert(a, dirty, want_way);
            Eviction got = cache.insert(a, dirty);
            ASSERT_EQ(got.valid, want.valid) << "step " << i;
            ASSERT_EQ(got.lineAddr, want.lineAddr) << "step " << i;
            ASSERT_EQ(got.dirty, want.dirty) << "step " << i;
            ASSERT_EQ(got.isInstr, want.isInstr) << "step " << i;
            if (hit)
                continue;
            std::uint32_t set = cache.setOf(a.lineAddr());
            ASSERT_TRUE(cache.lineAt(set, want_way).valid);
            ASSERT_EQ(cache.lineAt(set, want_way).tag,
                      lineNumber(a.lineAddr())) << "step " << i;
        }
        for (std::uint32_t s = 0; s < cache.numSets(); ++s)
            for (std::uint32_t w = 0; w < cache.assoc(); ++w) {
                CacheLine got = cache.lineAt(s, w);
                const NaiveLruCache::Line &want = ref.at(s, w);
                ASSERT_EQ(got.valid, want.valid);
                if (!want.valid)
                    continue;
                EXPECT_EQ(got.tag, want.tag);
                EXPECT_EQ(got.dirty, want.dirty);
                EXPECT_EQ(got.isInstr, want.isInstr);
                EXPECT_EQ(got.prefetched, want.prefetched);
            }
    }
}

// --------------------------------------------------------------------
// Flat line-keyed tables against std::map references.
// --------------------------------------------------------------------

/** Every live (key, value) pair forEach() visits, each exactly once. */
std::map<Addr, std::uint32_t>
flatContents(const FlatLineMap<std::uint32_t> &m)
{
    std::map<Addr, std::uint32_t> out;
    m.forEach([&](Addr k, std::uint32_t v) {
        EXPECT_TRUE(out.emplace(k, v).second) << "key " << k << " twice";
    });
    return out;
}

/**
 * FlatLineMap against std::map under random ref/find/erase mixes.  Keys
 * are drawn from a pool of random 58-bit line numbers.  A tiny initial
 * table makes the first phase grow it several times; the churn phase
 * then erases as often as it inserts, so probes cross tombstones,
 * inserts reuse them and tombstone-heavy rehashes run at a steady size.
 */
TEST(FlatLineMap, MatchesMapReference)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        Pcg32 rng(seed, 17);
        std::vector<Addr> pool(1500);
        for (Addr &k : pool)
            k = rng.next64() >> kLineShift;
        FlatLineMap<std::uint32_t> m(4);
        const FlatLineMap<std::uint32_t> &cm = m;
        std::map<Addr, std::uint32_t> ref;
        constexpr int kSteps = 120000;
        for (int step = 0; step < kSteps; ++step) {
            Addr key = pool[rng.nextBounded(
                static_cast<std::uint32_t>(pool.size()))];
            std::uint32_t op = rng.nextBounded(10);
            // Growth phase: mostly inserts; churn phase: inserts and
            // erases balance.
            std::uint32_t inserts = step < kSteps / 4 ? 7 : 4;
            if (op < inserts) {
                std::uint32_t add = rng.nextBounded(100);
                m.ref(key) += add;
                ref[key] += add;
            } else if (op < 7) {
                const std::uint32_t *got = cm.find(key);
                auto it = ref.find(key);
                ASSERT_EQ(got != nullptr, it != ref.end())
                    << "step " << step;
                if (got) {
                    ASSERT_EQ(*got, it->second) << "step " << step;
                }
            } else {
                m.erase(key);
                ref.erase(key);
                ASSERT_EQ(m.find(key), nullptr) << "step " << step;
            }
            ASSERT_EQ(m.size(), ref.size()) << "step " << step;
            if (step % 4096 == 0 || step == kSteps - 1) {
                ASSERT_EQ(flatContents(m), ref) << "step " << step;
            }
        }
        // Erase everything: an all-tombstone table holds nothing.
        for (Addr k : pool)
            m.erase(k);
        EXPECT_EQ(m.size(), 0u);
        EXPECT_TRUE(flatContents(m).empty());
        EXPECT_EQ(m.ref(pool[0]), 0u); // re-inserted value-initialized
        EXPECT_EQ(m.size(), 1u);
    }
}

/**
 * DecayingCounterTable: counters saturate at 255; a new key arriving
 * when size() + 1 reaches 3/4 of the table halves every count and drops
 * the zeros first; and a table still full after that decay reports the
 * new key once (count 1) without tracking it.
 */
TEST(DecayingCounterTable, SaturatesDecaysAndDropsWhenFull)
{
    // 16 expected entries: 32 slots, so the decay trigger fires on the
    // new key that arrives while 23 keys are tracked.
    constexpr Addr kLimit = 23;

    DecayingCounterTable t(16);
    for (int i = 1; i <= 300; ++i)
        ASSERT_EQ(t.increment(1000), std::min(i, 255)) << "bump " << i;
    EXPECT_EQ(t.increment(2000), 1);
    EXPECT_EQ(t.increment(2000), 2);
    // Fill to the trigger with single-touch keys: no decay yet.
    for (Addr k = 0; k < kLimit - 2; ++k)
        EXPECT_EQ(t.increment(k), 1);
    EXPECT_EQ(t.size(), kLimit);
    EXPECT_EQ(t.increment(1000), 255); // hits never decay

    // The next new key decays: 255 -> 127, 2 -> 1, the ones drop.
    EXPECT_EQ(t.increment(3000), 1);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_EQ(t.increment(1000), 128);
    EXPECT_EQ(t.increment(2000), 2);
    EXPECT_EQ(t.increment(3000), 2);
    EXPECT_EQ(t.increment(0), 1); // dropped: counts afresh
    EXPECT_EQ(t.size(), 4u);

    // Every tracked key at 8: decay halves them to 4 and drops none, so
    // the table is still full and the new key goes untracked.
    DecayingCounterTable full(16);
    for (Addr k = 0; k < kLimit; ++k)
        for (int i = 0; i < 8; ++i)
            full.increment(k);
    EXPECT_EQ(full.size(), kLimit);
    EXPECT_EQ(full.increment(5000), 1);
    EXPECT_EQ(full.size(), kLimit);
    EXPECT_EQ(full.increment(0), 5);
    // Again untracked: this decay takes the 4s to 2s (and 0's 5 to 2).
    EXPECT_EQ(full.increment(5000), 1);
    EXPECT_EQ(full.size(), kLimit);
    EXPECT_EQ(full.increment(1), 3);
    EXPECT_EQ(full.increment(0), 3);
}

// --------------------------------------------------------------------
// Pair table properties under random interleavings.
// --------------------------------------------------------------------

class PairTablePropertyTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PairTablePropertyTest, InvariantsUnderRandomTraffic)
{
    GaribaldiParams gp;
    gp.pairTableEntries = 512;
    gp.dppnEntries = 256;
    gp.k = GetParam();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Pcg32 rng(51 + GetParam(), 6);

    unsigned cost_max = (1u << gp.missCostBits) - 1;
    for (int i = 0; i < 50000; ++i) {
        Addr il = Addr{rng.nextBounded(2048)} << kLineShift;
        unsigned color = rng.nextBounded(8);
        switch (rng.nextBounded(4)) {
          case 0:
          case 1: {
              Addr dl = Addr{rng.nextBounded(4096)} << kLineShift;
              pt.updateOnDataAccess(il, dl, rng.chance(0.5), color,
                                    rng.nextBounded(64));
              break;
          }
          case 2:
            pt.onInstrMiss(il);
            break;
          default: {
              PairQueryResult q = pt.query(il, color);
              // Aged cost can never exceed the raw counter range.
              EXPECT_LE(q.agedCost, cost_max);
              break;
          }
        }
        if ((i & 1023) == 0) {
            PairTable::DebugEntry d = pt.debugEntry(il);
            EXPECT_LE(d.missCost, cost_max);
            EXPECT_LT(d.color, 8u);
            for (unsigned f = 0; f < gp.k; ++f) {
                if (d.fields[f].valid) {
                    EXPECT_LE(d.fields[f].sctr,
                              (1u << gp.sctrBits) - 1);
                }
            }
        }
    }
}

TEST_P(PairTablePropertyTest, QueriesNeverMutate)
{
    GaribaldiParams gp;
    gp.pairTableEntries = 64;
    gp.dppnEntries = 64;
    gp.k = GetParam();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Pcg32 rng(77 + GetParam(), 7);
    for (int i = 0; i < 200; ++i) {
        Addr il = Addr{rng.nextBounded(256)} << kLineShift;
        pt.updateOnDataAccess(il, Addr{rng.nextBounded(256)}
                                      << kLineShift,
                              rng.chance(0.5), rng.nextBounded(8), 32);
        PairTable::DebugEntry before = pt.debugEntry(il);
        for (unsigned c = 0; c < 8; ++c)
            pt.query(il, c);
        PairTable::DebugEntry after = pt.debugEntry(il);
        EXPECT_EQ(before.missCost, after.missCost);
        EXPECT_EQ(before.color, after.color);
        for (unsigned f = 0; f < gp.k; ++f) {
            EXPECT_EQ(before.fields[f].valid, after.fields[f].valid);
            EXPECT_EQ(before.fields[f].sctr, after.fields[f].sctr);
            EXPECT_EQ(before.fields[f].oldBit, after.fields[f].oldBit);
        }
    }
}

TEST_P(PairTablePropertyTest, PrefetchCandidatesAreLineAligned)
{
    GaribaldiParams gp;
    gp.pairTableEntries = 256;
    gp.dppnEntries = 128;
    gp.k = GetParam();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Pcg32 rng(99 + GetParam(), 8);
    std::vector<Addr> out;
    for (int i = 0; i < 5000; ++i) {
        Addr il = Addr{rng.nextBounded(512)} << kLineShift;
        pt.updateOnDataAccess(il,
                              (Addr{rng.next()} << kLineShift) &
                                  kPhysAddrMask,
                              rng.chance(0.5), rng.nextBounded(8), 32);
        out.clear();
        pt.collectPrefetchCandidates(il, out);
        EXPECT_LE(out.size(), std::size_t{gp.k});
        for (Addr a : out) {
            EXPECT_EQ(a % kLineBytes, 0u);
            EXPECT_LE(a, kPhysAddrMask);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(KValues, PairTablePropertyTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<unsigned> &i) {
                             return "k" + std::to_string(i.param);
                         });

} // namespace
} // namespace garibaldi
