/**
 * @file
 * Hawkeye, OPTgen and sampled-history tests, including the property
 * test comparing OPTgen against a brute-force Belady simulator on
 * random single-set traces (they must agree exactly when reuse
 * intervals are capped to the OPTgen window, which is how the Hawkeye
 * paper defines OPTgen), and Hawkeye's training against a reference
 * model built from std::map last-access times.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "mem/llc_bank_set.hh"
#include "mem/policy/hawkeye.hh"
#include "mem/policy/optgen.hh"
#include "mem/policy/sampled_history.hh"

namespace garibaldi
{
namespace
{

/**
 * Brute-force Belady MIN for one fully-associative set with the same
 * windowed-cold rule as OPTgen: a reuse beyond `window` accesses is
 * treated as a cold access.
 */
std::uint64_t
beladyHits(const std::vector<Addr> &trace, std::uint32_t ways,
           std::uint32_t window)
{
    // next_use[i]: index of the next access to trace[i]'s tag, or
    // "infinity"; reuse intervals > window are broken (treated cold).
    const std::size_t n = trace.size();
    const std::size_t inf = n + 1;
    std::vector<std::size_t> next_use(n, inf);
    std::unordered_map<Addr, std::size_t> last;
    for (std::size_t i = 0; i < n; ++i) {
        auto it = last.find(trace[i]);
        if (it != last.end() && i - it->second < window)
            next_use[it->second] = i;
        last[trace[i]] = i;
    }

    // Belady: on each access, hit if present; else evict the line with
    // the farthest next use.
    std::unordered_map<Addr, std::size_t> cache; // tag -> next use
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Addr tag = trace[i];
        auto it = cache.find(tag);
        if (it != cache.end() && it->second == i) {
            ++hits;
            it->second = next_use[i];
            continue;
        }
        if (it != cache.end()) {
            // Present but with a stale (broken) interval: treat as a
            // fresh insertion.
            it->second = next_use[i];
            continue;
        }
        if (cache.size() >= ways) {
            // Evict the farthest next use — unless the incoming line's
            // own next use is even farther, in which case MIN bypasses.
            auto victim = cache.begin();
            for (auto c = cache.begin(); c != cache.end(); ++c)
                if (c->second > victim->second)
                    victim = c;
            if (victim->second > next_use[i]) {
                cache.erase(victim);
                cache[tag] = next_use[i];
            }
            continue; // miss either way
        }
        cache[tag] = next_use[i];
    }
    return hits;
}

/**
 * One OPTgen set driven as Hawkeye drives it: reuse intervals from a
 * SampledHistory of window entries, OptGen's occupancy row in the
 * history's caller row.
 */
class OptGenSet
{
  public:
    OptGenSet(std::uint32_t ways, std::uint32_t window)
        : opt(ways, window), history(1, 0, window, opt.rowBytes())
    {}

    bool
    access(Addr tag)
    {
        SampledHistory::Access a = history.access(0, tag, 0);
        bool hit = opt.access(history.row(0), a.now, a.reuse);
        hits += hit;
        return hit;
    }

    std::uint64_t optHits() const { return hits; }

  private:
    OptGen opt;
    SampledHistory history;
    std::uint64_t hits = 0;
};

TEST(OptGen, ColdAccessesMiss)
{
    OptGenSet opt(4, 32);
    EXPECT_FALSE(opt.access(1));
    EXPECT_FALSE(opt.access(2));
    EXPECT_EQ(opt.optHits(), 0u);
}

TEST(OptGen, SimpleReuseHits)
{
    OptGenSet opt(2, 32);
    opt.access(1);
    opt.access(2);
    EXPECT_TRUE(opt.access(1)); // both fit in 2 ways
    EXPECT_TRUE(opt.access(2));
}

TEST(OptGen, CapacityBoundsHits)
{
    OptGenSet opt(1, 32); // single way
    opt.access(1);
    opt.access(2);
    // OPT can keep only one line per quantum; 1's interval overlaps 2's
    // insertion, so at most one of the reuses hits.
    bool h1 = opt.access(1);
    bool h2 = opt.access(2);
    EXPECT_FALSE(h1 && h2);
}

TEST(OptGen, BeyondWindowIsCold)
{
    OptGenSet opt(8, 4);
    opt.access(42);
    for (Addr a = 100; a < 105; ++a)
        opt.access(a);
    EXPECT_FALSE(opt.access(42)); // interval 6 > window 4
}

TEST(OptGen, IntervalOfOneWindowIsCold)
{
    OptGenSet cold(8, 4);
    cold.access(42);
    for (Addr a = 100; a < 103; ++a)
        cold.access(a);
    EXPECT_FALSE(cold.access(42)); // interval 4 == window 4

    OptGenSet warm(8, 4);
    warm.access(42);
    for (Addr a = 100; a < 102; ++a)
        warm.access(a);
    EXPECT_TRUE(warm.access(42)); // interval 3 < window 4
}

TEST(OptGen, ScanDoesNotPolluteOpt)
{
    OptGenSet opt(2, 64);
    // Working set {1,2} with an interleaved scan: OPT keeps {1,2}.
    std::uint64_t scan = 1000;
    for (int round = 0; round < 8; ++round) {
        opt.access(1);
        opt.access(2);
        opt.access(scan++); // never reused
    }
    // After the cold first round, 1 and 2 should always hit: 2 hits
    // per round for 7 rounds.
    EXPECT_EQ(opt.optHits(), 14u);
}

/** Property: OPTgen == brute-force Belady on random traces. */
class OptGenPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(OptGenPropertyTest, MatchesBruteForceBelady)
{
    auto [ways, tags, seed] = GetParam();
    std::uint32_t window = 8 * ways;
    Pcg32 rng(seed, 99);
    std::vector<Addr> trace;
    for (int i = 0; i < 600; ++i)
        trace.push_back(1 + rng.nextBounded(tags));

    OptGenSet opt(ways, window);
    std::uint64_t optgen_hits = 0;
    for (Addr t : trace)
        optgen_hits += opt.access(t);

    EXPECT_EQ(optgen_hits, beladyHits(trace, ways, window));
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraces, OptGenPropertyTest,
    ::testing::Values(std::make_tuple(2, 6, 1), std::make_tuple(2, 12, 2),
                      std::make_tuple(4, 10, 3),
                      std::make_tuple(4, 24, 4),
                      std::make_tuple(8, 20, 5),
                      std::make_tuple(8, 64, 6),
                      std::make_tuple(12, 30, 7),
                      std::make_tuple(16, 50, 8)));

TEST(SampledHistory, EvictsStalestAndStaysBounded)
{
    constexpr std::uint32_t kLen = 16;
    constexpr std::uint32_t kSets = 4;
    SampledHistory h(kSets, 0, kLen);
    std::map<Addr, std::uint64_t> last[kSets]; // line -> stamp
    Pcg32 rng(3, 7);
    std::uint64_t evictions = 0, reuses = 0;
    for (int i = 0; i < 5000; ++i) {
        std::uint32_t s = rng.nextBounded(kSets);
        Addr line = Addr{rng.nextBounded(40)} * kSets + s;
        // The signature names the line, so an eviction says which.
        SampledHistory::Access a =
            h.access(s, line, static_cast<std::uint16_t>(line));
        std::map<Addr, std::uint64_t> &ref = last[s];
        auto it = ref.find(line);
        if (it != ref.end()) {
            ++reuses;
            EXPECT_EQ(a.reuse, a.now - it->second);
            EXPECT_EQ(a.prevSig, line);
        } else {
            EXPECT_EQ(a.reuse, 0u);
        }
        ref[line] = a.now;
        if (ref.size() > kLen) {
            auto stalest = std::min_element(
                ref.begin(), ref.end(), [](const auto &x, const auto &y) {
                    return x.second < y.second;
                });
            ASSERT_TRUE(a.evicted) << "access " << i;
            EXPECT_EQ(a.evictedSig, stalest->first) << "access " << i;
            ref.erase(stalest);
            ++evictions;
        } else {
            EXPECT_FALSE(a.evicted) << "access " << i;
        }
        ASSERT_LE(h.filled(s), kLen);
        EXPECT_EQ(h.filled(s), ref.size());
    }
    EXPECT_GT(evictions, 100u);
    EXPECT_GT(reuses, 100u);
}

/**
 * The 16-bit stamps against 64-bit ones: per set, a reference keeps
 * every held line's last stamp and signature under an unbounded clock
 * and evicts the minimum stamp above historyLen lines.  Each set sees
 * over 2^18 accesses, so its stamps are re-ranked four times.  A
 * skewed pool a little smaller than the history gives reuse far beyond
 * R = 2 x historyLen; a 4% scan of new lines forces evictions.  The
 * evicted signatures must follow the reference's order exactly, and
 * reuse must match up to R and stay above R beyond it.
 */
TEST(SampledHistory, MatchesWideStampReference)
{
    for (std::uint32_t ways : {12u, 48u}) {
        SCOPED_TRACE(ways);
        const std::uint32_t len = kHistoryAssocMult * ways;
        const std::uint64_t r = 2 * len;
        const std::uint32_t pool = len - len / 8;
        constexpr std::uint32_t kSets = 2;
        SampledHistory h(kSets, 0, len);
        struct Held
        {
            std::uint64_t stamp;
            std::uint16_t sig;
        };
        std::map<Addr, Held> held[kSets];
        std::map<std::uint64_t, Addr> byStamp[kSets];
        std::uint64_t tick[kSets] = {};
        std::uint32_t nextScan[kSets] = {};
        Pcg32 rng(17, ways);
        std::uint64_t evictions = 0, exact = 0, beyond = 0;
        for (int i = 0; i < 2 * 270000; ++i) {
            std::uint32_t s = i & 1;
            // Ids below pool are the skewed hot pool, the rest scan.
            std::uint32_t id;
            if (rng.nextBounded(100) < 4) {
                id = pool + nextScan[s]++;
            } else {
                double u = rng.nextDouble();
                id = static_cast<std::uint32_t>(pool * u * u * u);
            }
            Addr line = Addr{id} * kSets + s;
            auto sig = static_cast<std::uint16_t>(id);
            SampledHistory::Access a = h.access(s, line, sig);
            std::uint64_t now = ++tick[s];
            ASSERT_EQ(a.now, now);

            auto it = held[s].find(line);
            if (it != held[s].end()) {
                std::uint64_t reuse = now - it->second.stamp;
                if (reuse <= r) {
                    ASSERT_EQ(a.reuse, reuse) << "access " << i;
                    exact += reuse > len;
                } else {
                    ASSERT_GT(a.reuse, r) << "access " << i;
                    ++beyond;
                }
                ASSERT_EQ(a.prevSig, it->second.sig);
                byStamp[s].erase(it->second.stamp);
            } else {
                ASSERT_EQ(a.reuse, 0u) << "access " << i;
            }
            held[s][line] = {now, sig};
            byStamp[s][now] = line;
            if (held[s].size() > len) {
                auto stalest = byStamp[s].begin();
                ASSERT_TRUE(a.evicted) << "access " << i;
                ASSERT_EQ(a.evictedSig, held[s][stalest->second].sig)
                    << "access " << i;
                held[s].erase(stalest->second);
                byStamp[s].erase(stalest);
                ++evictions;
            } else {
                ASSERT_FALSE(a.evicted) << "access " << i;
            }
            ASSERT_EQ(h.filled(s), held[s].size());
        }
        EXPECT_GT(evictions, 10000u);
        EXPECT_GT(exact, 1000u);
        EXPECT_GT(beyond, 1000u);
    }
}

/**
 * Keys on banked geometries: 4 banks of 64 sets with the bank-select
 * field at line bit 0, inside the set index (bit 3) and above it
 * (bit 8).  Every line of one bank's set that differs from a base line
 * in one bit outside the set and bank fields, up to bit 37, must be
 * told apart from the others.
 */
TEST(SampledHistory, KeysDistinctOnBankedGeometries)
{
    constexpr std::uint32_t kBanks = 4;
    for (std::uint32_t shift : {0u, 3u, 8u}) {
        SCOPED_TRACE(shift);
        CacheParams p;
        p.sizeBytes = kBanks * 64 * 4 * kLineBytes;
        p.assoc = 4;
        LlcBankSet llc(p, kBanks, shift);
        ASSERT_EQ(llc.setsPerBank(), 64u);
        const std::uint32_t bank = 2, set = 37;
        auto inBankSet = [&](Addr ln) {
            Addr la = ln << kLineShift;
            return llc.bankOf(la) == bank && llc.bankFor(la).setOf(la) == set;
        };
        Addr base = 0;
        while (!inBankSet(base))
            ++base;
        std::vector<Addr> lines{base};
        for (unsigned bit = 0; bit < 38; ++bit)
            if (inBankSet(base ^ (Addr{1} << bit)))
                lines.push_back(base ^ (Addr{1} << bit));
        ASSERT_EQ(lines.size(), 1u + 38 - 6 - 2);
        ASSERT_EQ(lines.back(), base ^ (Addr{1} << 37));

        SampledHistory h(llc.setsPerBank(), 0, 64);
        for (Addr ln : lines)
            EXPECT_EQ(h.access(set, ln, 0).reuse, 0u) << ln;
        for (Addr ln : lines)
            EXPECT_EQ(h.access(set, ln, 0).reuse, lines.size()) << ln;
        EXPECT_EQ(h.filled(set), lines.size());
    }
}

TEST(SampledHistoryDeathTest, KeyWiderThan32BitsPanics)
{
    SampledHistory h(4, 0, 8);
    h.access(0, (Addr{1} << 34) - 4, 0); // key 2^32 - 1 fits
    EXPECT_DEATH(h.access(0, Addr{1} << 34, 0), "wider than 32 bits");
}

TEST(SampledHistoryDeathTest, RejectsHistoryLongerThan1024)
{
    // Re-ranked stamps reach 3 x historyLen and must leave most of the
    // 16-bit range for new ones.
    SampledHistory ok(4, 0, 1024);
    EXPECT_EXIT({ SampledHistory h(4, 0, 1025); },
                testing::ExitedWithCode(1), "1..1024");
}

TEST(SampledHistory, CallerRowStartsZeroed)
{
    SampledHistory h(2, 0, 4, 8);
    h.access(1, 42, 7);
    const std::uint8_t *row = h.row(1);
    EXPECT_TRUE(std::all_of(row, row + 8,
                            [](std::uint8_t b) { return b == 0; }));
    EXPECT_EQ(h.filled(0), 0u);
    EXPECT_EQ(h.filled(1), 1u);
}

/**
 * Hawkeye's training against an independent model: per sampled set,
 * every line's last access (time, PC) in a std::map trimmed to the
 * historyLen most recent lines, OPT over an occupancy vector indexed
 * by absolute time, and a 3-bit counter per PC.  A reuse trains the
 * previous accessor by OPT's verdict; a line pushed out of the history
 * unreused detrains its last accessor; prefetches and unsampled sets
 * train nothing.
 */
TEST(Hawkeye, SampledHistoryMatchesReferenceModel)
{
    constexpr std::uint32_t kSets = 8;
    constexpr std::uint32_t kWays = 4;
    PolicyParams params;
    params.sampleShift = 1; // sets 0, 2, 4 and 6 train
    HawkeyePolicy p(kSets, kWays, params);
    const std::uint32_t window = kHistoryAssocMult * kWays;
    // The first three PCs reuse a few hot lines; the rest scan a pool
    // larger than the window.
    const std::vector<Addr> pcs = {0x401000, 0x401104, 0x401208,
                                   0x40130c, 0x401410, 0x401514};

    struct Entry
    {
        std::uint64_t time;
        Addr pc;
    };
    struct RefSet
    {
        std::map<Addr, Entry> last;
        std::vector<unsigned> occupancy;
    };
    std::map<std::uint32_t, RefSet> sets;
    std::map<Addr, unsigned> counter;
    for (Addr pc : pcs)
        counter[pc] = 4;
    auto train = [&](Addr pc, bool up) {
        unsigned &c = counter[pc];
        if (up && c < 7)
            ++c;
        else if (!up && c > 0)
            --c;
    };

    Pcg32 rng(11, 5);
    std::uint64_t opt_hits = 0, evictions = 0, friendly_seen = 0,
                  averse_seen = 0;
    for (int i = 0; i < 20000; ++i) {
        std::uint32_t set = rng.nextBounded(kSets);
        std::uint32_t k = rng.nextBounded(static_cast<std::uint32_t>(
            pcs.size()));
        Addr line = k < 3 ? rng.nextBounded(4) : 4 + rng.nextBounded(60);
        MemAccess a;
        a.pc = pcs[k];
        a.paddr = (line * kSets + set) << kLineShift;
        a.isPrefetch = rng.nextBounded(10) == 0;
        p.onAccess(set, a, false);

        if (set % 2 == 0 && !a.isPrefetch) {
            RefSet &rs = sets[set];
            std::uint64_t now = rs.occupancy.size();
            rs.occupancy.push_back(0);
            auto it = rs.last.find(line);
            if (it != rs.last.end()) {
                std::uint64_t prev = it->second.time;
                bool hit = now - prev < window;
                for (std::uint64_t t = prev; hit && t < now; ++t)
                    hit = rs.occupancy[t] < kWays;
                if (hit) {
                    for (std::uint64_t t = prev; t < now; ++t)
                        ++rs.occupancy[t];
                    ++opt_hits;
                }
                train(it->second.pc, hit);
                it->second = {now, a.pc};
            } else {
                rs.last[line] = {now, a.pc};
                if (rs.last.size() > window) {
                    auto stalest = std::min_element(
                        rs.last.begin(), rs.last.end(),
                        [](const auto &x, const auto &y) {
                            return x.second.time < y.second.time;
                        });
                    train(stalest->second.pc, false);
                    rs.last.erase(stalest);
                    ++evictions;
                }
            }
        }
        for (Addr pc : pcs) {
            bool expect = counter[pc] > 3;
            ASSERT_EQ(p.isFriendly(pc), expect)
                << "access " << i << ", pc " << std::hex << pc;
            ++(expect ? friendly_seen : averse_seen);
        }
    }
    // The trace exercised every rule.
    EXPECT_GT(opt_hits, 1000u);
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(friendly_seen, 1000u);
    EXPECT_GT(averse_seen, 1000u);
}

TEST(Hawkeye, LearnsFriendlyPc)
{
    PolicyParams params;
    params.sampleShift = 0; // sample every set
    HawkeyePolicy p(4, 4, params);
    Addr friendly_pc = 0x500;
    // The same PC re-touches a small set of lines: OPT hits => train up.
    MemAccess a;
    a.pc = friendly_pc;
    for (int i = 0; i < 50; ++i) {
        a.paddr = Addr((i % 2) + 1) << kLineShift << 2; // set 0 lines
        a.paddr = (Addr((i % 2) + 1) * 4) << kLineShift;
        p.onAccess(0, a, true);
    }
    EXPECT_TRUE(p.isFriendly(friendly_pc));
}

TEST(Hawkeye, LearnsAversePc)
{
    PolicyParams params;
    params.sampleShift = 0;
    HawkeyePolicy p(4, 4, params);
    Addr scan_pc = 0x700;
    MemAccess a;
    a.pc = scan_pc;
    // Cyclic scan over 50 lines: reuse distance 50 exceeds the OPTgen
    // window (8 x 4 = 32), so every reuse is an OPT miss => detrain.
    for (int i = 0; i < 300; ++i) {
        a.paddr = (Addr(i % 50) * 4) << kLineShift;
        p.onAccess(0, a, false);
    }
    EXPECT_FALSE(p.isFriendly(scan_pc));
}

TEST(Hawkeye, AverseLinesEvictFirst)
{
    PolicyParams params;
    params.sampleShift = 0;
    HawkeyePolicy p(4, 4, params);
    // Manually drive predictor averse for pc 0x700 (see above).
    MemAccess scan;
    scan.pc = 0x700;
    for (int i = 0; i < 300; ++i) {
        scan.paddr = (Addr(i % 50) * 4) << kLineShift;
        p.onAccess(0, scan, false);
    }
    MemAccess friendly;
    friendly.pc = 0x500;
    for (int i = 0; i < 50; ++i) {
        friendly.paddr = (Addr((i % 2) + 1) * 4) << kLineShift;
        p.onAccess(0, friendly, true);
    }
    ASSERT_FALSE(p.isFriendly(0x700));

    p.onInsert(0, 0, friendly);
    p.onInsert(0, 1, scan);
    p.onInsert(0, 2, friendly);
    p.onInsert(0, 3, friendly);
    EXPECT_EQ(p.victim(0, friendly), 1u); // the averse line
}

TEST(Hawkeye, RejectsAssocAbove255)
{
    // OPTgen's occupancy counts are bytes.
    PolicyParams params;
    EXPECT_DEATH({ HawkeyePolicy p(4, 256, params); }, "associativity");
}

TEST(Hawkeye, PromoteMakesLineSafe)
{
    PolicyParams params;
    HawkeyePolicy p(4, 4, params);
    MemAccess a;
    a.pc = 0x900;
    for (std::uint32_t w = 0; w < 4; ++w)
        p.onInsert(0, w, a);
    std::uint32_t v = p.victim(0, a);
    p.promote(0, v);
    EXPECT_NE(p.victim(0, a), v);
}

} // namespace
} // namespace garibaldi
