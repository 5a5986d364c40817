/**
 * @file
 * Replacement-policy tests: exact LRU behavior, DRRIP's RRPV and
 * set-dueling semantics, plus parameterized invariants that every
 * policy must satisfy (victims in range, promote shields from the
 * immediate re-selection, factory round-trips), and the byte recency
 * stamps against global ticks.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "mem/policy/recency_stamps.hh"
#include "mem/policy/replacement.hh"
#include "mem/policy/rrip.hh"

namespace garibaldi
{
namespace
{

MemAccess
pcAccess(Addr pc, Addr paddr = 0x1000)
{
    MemAccess a;
    a.pc = pc;
    a.paddr = paddr;
    return a;
}

TEST(PolicyFactory, NamesRoundTrip)
{
    for (PolicyKind k : {PolicyKind::LRU, PolicyKind::DRRIP,
                         PolicyKind::Hawkeye, PolicyKind::Mockingjay})
        EXPECT_EQ(parsePolicyKind(policyKindName(k)), k);
}

TEST(Lru, VictimIsLeastRecent)
{
    auto p = makePolicy(PolicyKind::LRU, 4, 4);
    MemAccess a = pcAccess(0);
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onInsert(0, w, a);
    p.onHit(0, 0, a); // 0 most recent; way 1 is oldest
    EXPECT_EQ(p.victim(0, a), 1u);
    p.onHit(0, 1, a);
    EXPECT_EQ(p.victim(0, a), 2u);
}

TEST(Lru, PromoteShieldsLine)
{
    auto p = makePolicy(PolicyKind::LRU, 4, 4);
    MemAccess a = pcAccess(0);
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onInsert(0, w, a);
    EXPECT_EQ(p.victim(0, a), 0u);
    p.promote(0, 0);
    EXPECT_EQ(p.victim(0, a), 1u);
}

// Set 0 is an SRRIP leader at every small set count (stride 2), so
// the SRRIP tests below run on it.
TEST(Drrip, InsertLongHitNear)
{
    DrripPolicy p(4, 4, 3, 1); // max rrpv 7
    MemAccess a = pcAccess(0);
    p.onInsert(0, 0, a);
    EXPECT_EQ(p.rrpvOf(0, 0), 6u); // long = max-1
    p.onHit(0, 0, a);
    EXPECT_EQ(p.rrpvOf(0, 0), 0u); // near-immediate
}

TEST(Drrip, VictimAgesSetUntilDistantFound)
{
    DrripPolicy p(1, 2, 2, 1); // max rrpv 3
    MemAccess a = pcAccess(0);
    p.onInsert(0, 0, a);
    p.onInsert(0, 1, a);
    p.onHit(0, 0, a); // rrpv 0
    p.onHit(0, 1, a); // rrpv 0
    std::uint32_t v = p.victim(0, a);
    // Aging must raise both to max and return the first distant way.
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(p.rrpvOf(0, 0), 3u);
    EXPECT_EQ(p.rrpvOf(0, 1), 3u);
}

TEST(Drrip, PromoteResetsRrpv)
{
    DrripPolicy p(1, 2, 3, 1);
    MemAccess a = pcAccess(0);
    p.onInsert(0, 0, a);
    p.promote(0, 0);
    EXPECT_EQ(p.rrpvOf(0, 0), 0u);
}

TEST(Drrip, LeaderMissesSteerPsel)
{
    DrripPolicy p(64, 4, 3, 1);
    MemAccess a = pcAccess(0);
    int before = p.pselValue();
    // Set 0 is an SRRIP leader (stride 2): misses push PSEL up.
    for (int i = 0; i < 10; ++i)
        p.onAccess(0, a, /*hit=*/false);
    EXPECT_GT(p.pselValue(), before);
    // The BRRIP leader pulls it back down.
    for (int i = 0; i < 20; ++i)
        p.onAccess(1, a, /*hit=*/false);
    EXPECT_LT(p.pselValue(), before + 10);
}

TEST(Drrip, HitsDoNotMovePsel)
{
    DrripPolicy p(64, 4, 3, 1);
    MemAccess a = pcAccess(0);
    int before = p.pselValue();
    for (int i = 0; i < 10; ++i)
        p.onAccess(0, a, /*hit=*/true);
    EXPECT_EQ(p.pselValue(), before);
}

/** Fill (set, 0) @p n times; count the fills that went in "long". */
int
longInserts(DrripPolicy &p, std::uint32_t set, int n)
{
    MemAccess a = pcAccess(0);
    int long_fills = 0;
    for (int i = 0; i < n; ++i) {
        p.onInsert(set, 0, a);
        unsigned v = p.rrpvOf(set, 0);
        EXPECT_TRUE(v == 6u || v == 7u) << "rrpv " << v;
        long_fills += v == 6u;
    }
    return long_fills;
}

TEST(Drrip, BrripLeaderInsertsDistantMostly)
{
    // 128 sets: stride 4, so set 0 leads SRRIP, set 2 leads BRRIP and
    // sets 1 and 3 follow PSEL.
    DrripPolicy p(128, 4, 3, 1); // max rrpv 7
    MemAccess a = pcAccess(0);

    // BRRIP leader: distant except about 1 in 32 fills.
    int leader_long = longInserts(p, 2, 3200);
    EXPECT_GT(leader_long, 50);
    EXPECT_LT(leader_long, 150);

    // PSEL starts at 0: followers insert BRRIP-style.
    ASSERT_EQ(p.pselValue(), 0);
    int follower_long = longInserts(p, 1, 320);
    EXPECT_GT(follower_long, 0);
    EXPECT_LT(follower_long, 30);

    // A BRRIP-leader miss makes PSEL negative: followers go SRRIP-style.
    p.onAccess(2, a, /*hit=*/false);
    ASSERT_LT(p.pselValue(), 0);
    EXPECT_EQ(longInserts(p, 1, 320), 320);
    EXPECT_EQ(longInserts(p, 3, 320), 320);

    // An SRRIP-leader miss brings PSEL back to 0: BRRIP-style again.
    p.onAccess(0, a, /*hit=*/false);
    ASSERT_EQ(p.pselValue(), 0);
    follower_long = longInserts(p, 3, 320);
    EXPECT_GT(follower_long, 0);
    EXPECT_LT(follower_long, 30);
}

// ---------------------------------------------------------------------
// Parameterized invariants across all policies.
// ---------------------------------------------------------------------

class PolicyInvariantTest : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(PolicyInvariantTest, VictimAlwaysInRange)
{
    auto p = makePolicy(GetParam(), 16, 8);
    Pcg32 rng(1, 1);
    for (int i = 0; i < 2000; ++i) {
        std::uint32_t set = rng.nextBounded(16);
        MemAccess a = pcAccess(rng.next() & ~3u,
                               Addr{rng.next()} << kLineShift);
        p.onAccess(set, a, rng.chance(0.5));
        std::uint32_t w = rng.nextBounded(8);
        if (rng.chance(0.5))
            p.onHit(set, w, a);
        else
            p.onInsert(set, w, a);
        std::uint32_t v = p.victim(set, a);
        EXPECT_LT(v, 8u);
    }
}

TEST_P(PolicyInvariantTest, PromoteChangesImmediateVictim)
{
    auto p = makePolicy(GetParam(), 4, 8);
    MemAccess a = pcAccess(0x40);
    for (std::uint32_t w = 0; w < 8; ++w)
        p.onInsert(0, w, a);
    std::uint32_t v1 = p.victim(0, a);
    p.promote(0, v1);
    std::uint32_t v2 = p.victim(0, a);
    EXPECT_NE(v1, v2);
}

TEST_P(PolicyInvariantTest, EvictThenReinsertIsStable)
{
    auto p = makePolicy(GetParam(), 4, 4);
    MemAccess a = pcAccess(0x40);
    for (int round = 0; round < 50; ++round) {
        for (std::uint32_t w = 0; w < 4; ++w)
            p.onInsert(0, w, a);
        std::uint32_t v = p.victim(0, a);
        p.onEvict(0, v);
        p.onInsert(0, v, a);
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyInvariantTest,
    ::testing::Values(PolicyKind::LRU, PolicyKind::DRRIP,
                      PolicyKind::Hawkeye, PolicyKind::Mockingjay),
    [](const ::testing::TestParamInfo<PolicyKind> &pinfo) {
        return std::string(policyKindName(pinfo.param));
    });

/** Oldest way of [lo, hi) under global ticks: minimum, lowest on ties. */
std::uint32_t
oldestByTick(const Tick *row, std::uint32_t lo, std::uint32_t hi)
{
    std::uint32_t best = lo;
    for (std::uint32_t w = lo + 1; w < hi; ++w)
        if (row[w] < row[best])
            best = w;
    return best;
}

// Random touches and clears, well over 255 touches per row, so every
// row is re-ranked many times.  After each step the touched row orders
// its ways exactly as global ticks do, and the oldest way of the whole
// row and of a random way range (a partition region) agree.
TEST(RecencyStamps, MatchesGlobalTickReference)
{
    for (std::uint32_t assoc : {6u, 12u, 16u, 48u}) {
        SCOPED_TRACE(assoc);
        constexpr std::uint32_t kSets = 4;
        RecencyStamps stamps(kSets, assoc);
        std::vector<Tick> ref(std::size_t{kSets} * assoc, 0);
        Tick tick = 0;
        Pcg32 rng(assoc, 5);
        for (int i = 0; i < 20000; ++i) {
            std::uint32_t set = rng.nextBounded(kSets);
            std::uint32_t way = rng.nextBounded(assoc);
            const Tick *row = &ref[std::size_t{set} * assoc];
            if (rng.chance(0.1)) {
                stamps.clear(set, way);
                ref[std::size_t{set} * assoc + way] = 0;
            } else {
                stamps.touch(set, way);
                ref[std::size_t{set} * assoc + way] = ++tick;
            }
            for (std::uint32_t x = 0; x < assoc; ++x)
                for (std::uint32_t y = 0; y < assoc; ++y)
                    ASSERT_EQ(stamps.stamp(set, x) < stamps.stamp(set, y),
                              row[x] < row[y])
                        << "step " << i << " ways " << x << ", " << y;
            std::uint32_t lo = rng.nextBounded(assoc);
            std::uint32_t hi = lo + 1 + rng.nextBounded(assoc - lo);
            ASSERT_EQ(stamps.oldest(set, 0, assoc),
                      oldestByTick(row, 0, assoc)) << "step " << i;
            ASSERT_EQ(stamps.oldest(set, lo, hi), oldestByTick(row, lo, hi))
                << "step " << i;
        }
    }
}

TEST(RecencyStamps, RejectsRowsWiderThanMaxAssoc)
{
    RecencyStamps widest(1, RecencyStamps::kMaxAssoc);
    EXPECT_TRUE(static_cast<bool>(widest));
    EXPECT_EXIT({ RecencyStamps s(1, RecencyStamps::kMaxAssoc + 1); },
                testing::ExitedWithCode(1), "associativity 129");
}

} // namespace
} // namespace garibaldi
