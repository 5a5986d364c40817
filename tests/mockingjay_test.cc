/**
 * @file
 * Mockingjay tests: reuse-distance predictor training, ETR aging and
 * victim selection, prefetch-aware insertion, sampled-set training, and
 * the sampled cache against a std::map reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hh"
#include "mem/policy/mockingjay.hh"

namespace garibaldi
{
namespace
{

PolicyParams
mjParams()
{
    PolicyParams p;
    p.counterBits = 5;
    p.sampleShift = 0; // sample every set for tests
    return p;
}

MemAccess
access(Addr pc, Addr line_no)
{
    MemAccess a;
    a.pc = pc;
    a.paddr = line_no << kLineShift;
    return a;
}

TEST(Mockingjay, UnknownPcBootstrapsNear)
{
    MockingjayPolicy p(4, 4, mjParams());
    EXPECT_EQ(p.predictedRd(0xabc), 4u); // == assoc
}

TEST(Mockingjay, TrainsShortReuse)
{
    MockingjayPolicy p(4, 4, mjParams());
    Addr pc = 0x100;
    // Same line touched by the same PC every 2 sampled accesses.
    for (int i = 0; i < 40; ++i) {
        p.onAccess(0, access(pc, 4), false);
        p.onAccess(0, access(0x999, Addr(100 + i) * 4), false);
    }
    EXPECT_LE(p.predictedRd(pc), 4u);
    EXPECT_GE(p.predictedRd(pc), 1u);
}

TEST(Mockingjay, TrainsScansFar)
{
    MockingjayPolicy p(4, 4, mjParams());
    Addr scan_pc = 0x200;
    // Lines touched once and pushed out of the sampler window.
    for (int i = 0; i < 300; ++i)
        p.onAccess(0, access(scan_pc, Addr(1000 + i) * 4), false);
    EXPECT_GE(p.predictedRd(scan_pc), 2u * 8 * 4 / 2); // far
}

TEST(Mockingjay, VictimIsFarthestEtr)
{
    MockingjayPolicy p(4, 4, mjParams());
    MemAccess near = access(0x100, 0);
    // Train 0x100 near (reuse distance ~2).
    for (int i = 0; i < 40; ++i) {
        p.onAccess(0, access(0x100, 4), false);
        p.onAccess(0, access(0x998, Addr(200 + i) * 4), false);
    }
    // Train 0x200 far.
    for (int i = 0; i < 300; ++i)
        p.onAccess(0, access(0x200, Addr(1000 + i) * 4), false);

    p.onInsert(0, 0, access(0x100, 0));
    p.onInsert(0, 1, access(0x200, 4)); // far line
    p.onInsert(0, 2, access(0x100, 8));
    p.onInsert(0, 3, access(0x100, 12));
    EXPECT_EQ(p.victim(0, near), 1u);
}

TEST(Mockingjay, PrefetchInsertedAsFar)
{
    MockingjayPolicy p(4, 4, mjParams());
    MemAccess pf = access(0x300, 0);
    pf.isPrefetch = true;
    p.onInsert(0, 0, pf);
    MemAccess demand = access(0x300, 4);
    p.onInsert(0, 1, demand);
    p.onInsert(0, 2, demand);
    p.onInsert(0, 3, demand);
    // The unproven prefetched line is the preferred victim.
    EXPECT_EQ(p.victim(0, demand), 0u);
}

TEST(Mockingjay, DemandHitRedeemsPrefetchedLine)
{
    MockingjayPolicy p(4, 4, mjParams());
    MemAccess pf = access(0x300, 0);
    pf.isPrefetch = true;
    p.onInsert(0, 0, pf);
    EXPECT_EQ(std::abs(p.effectiveEtr(0, 0)), 15);
    p.onHit(0, 0, access(0x300, 0));
    EXPECT_LT(std::abs(p.effectiveEtr(0, 0)), 15);
}

TEST(Mockingjay, AgingDecrementsEtr)
{
    PolicyParams params = mjParams();
    MockingjayPolicy p(4, 4, params);
    p.onInsert(0, 0, access(0x100, 0));
    int before = p.effectiveEtr(0, 0);
    // Drive enough set accesses for at least one aging step
    // (granularity = historyLen / maxEtr = 32 / 15 = 2).
    for (int i = 0; i < 8; ++i)
        p.onAccess(0, access(0x999, Addr(50 + i) * 4), false);
    EXPECT_LT(p.effectiveEtr(0, 0), before);
}

TEST(Mockingjay, PromoteZeroesEtr)
{
    MockingjayPolicy p(4, 4, mjParams());
    MemAccess pf = access(0x300, 0);
    pf.isPrefetch = true;
    p.onInsert(0, 0, pf);
    p.promote(0, 0);
    EXPECT_EQ(p.effectiveEtr(0, 0), 0);
}

TEST(Mockingjay, OverdueLinesAreVictims)
{
    MockingjayPolicy p(4, 4, mjParams());
    MemAccess a = access(0x100, 0);
    p.onInsert(0, 0, a);
    p.onInsert(0, 1, a);
    p.onInsert(0, 2, a);
    p.onInsert(0, 3, a);
    // Age way 0 far negative by many set accesses; others re-predicted.
    for (int i = 0; i < 100; ++i) {
        p.onAccess(0, access(0x999, Addr(50 + i) * 4), false);
        p.onHit(0, 1, a);
        p.onHit(0, 2, a);
        p.onHit(0, 3, a);
    }
    EXPECT_EQ(p.victim(0, a), 0u);
}

/**
 * Mockingjay's sampled cache and reuse-distance predictor, written
 * plainly: per sampled set, a std::map of line number → (last PC,
 * stamp) under a per-set clock.  A hit trains the stored PC with the
 * distance; a miss inserts and, above historyLen entries, evicts the
 * stalest entry and trains its PC far.  The predictor is keyed by PC,
 * which matches the policy's hashed table while the PCs do not collide.
 */
class SamplerReference
{
  public:
    SamplerReference(std::uint32_t assoc_, const PolicyParams &p)
        : assoc(assoc_), sampleShift(p.sampleShift),
          historyLen(kHistoryAssocMult * assoc_)
    {}

    void
    access(std::uint32_t set, const MemAccess &a)
    {
        if ((set & ((1u << sampleShift) - 1)) != 0 || a.isPrefetch)
            return;
        std::uint64_t now = ++ticks[set];
        std::map<Addr, Entry> &entries = sets[set];
        Addr key = lineNumber(a.lineAddr());
        auto it = entries.find(key);
        if (it != entries.end()) {
            train(it->second.pc, now - it->second.stamp);
            it->second = {a.pc, now};
            return;
        }
        entries[key] = {a.pc, now};
        if (entries.size() > historyLen) {
            auto stalest = std::min_element(
                entries.begin(), entries.end(),
                [](const auto &x, const auto &y) {
                    return x.second.stamp < y.second.stamp;
                });
            train(stalest->second.pc, 2 * historyLen);
            entries.erase(stalest);
        }
    }

    std::uint32_t
    predictedRd(Addr pc) const
    {
        auto it = rdp.find(pc);
        return it == rdp.end() ? assoc : it->second;
    }

  private:
    struct Entry
    {
        Addr pc;
        std::uint64_t stamp;
    };

    void
    train(Addr pc, std::uint64_t observed)
    {
        auto clamped = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(observed, 2 * historyLen));
        auto it = rdp.find(pc);
        if (it == rdp.end())
            rdp[pc] = clamped;
        else
            it->second = (3 * it->second + clamped) / 4;
    }

    std::uint32_t assoc;
    unsigned sampleShift;
    std::uint32_t historyLen;
    std::map<std::uint32_t, std::map<Addr, Entry>> sets;
    std::map<std::uint32_t, std::uint64_t> ticks;
    std::map<Addr, std::uint32_t> rdp; //!< absent = never trained
};

TEST(Mockingjay, SampledCacheMatchesReferenceModel)
{
    PolicyParams params = mjParams();
    params.sampleShift = 2; // sets 0, 4, 8, 12 of 16 are sampled
    constexpr std::uint32_t kAssoc = 4; // historyLen 32
    MockingjayPolicy p(16, kAssoc, params);
    SamplerReference ref(kAssoc, params);
    const Addr pcs[] = {0x401000, 0x401040, 0x402000, 0x40a0c0,
                        0x413370, 0x4ff000};
    const std::uint32_t sets[] = {0, 1, 4, 12};
    Pcg32 rng(24, 7);
    for (int i = 0; i < 20000; ++i) {
        std::uint32_t set = sets[rng.nextBounded(4)];
        // 48 keys per set: more than historyLen, so entries are evicted
        // as well as re-found.
        MemAccess a = access(pcs[rng.nextBounded(6)],
                             Addr{rng.nextBounded(48)} * 16 + set);
        a.isPrefetch = rng.chance(0.1);
        p.onAccess(set, a, false);
        ref.access(set, a);
        for (Addr pc : pcs)
            ASSERT_EQ(p.predictedRd(pc), ref.predictedRd(pc))
                << "step " << i << " pc " << pc;
    }
}

TEST(Mockingjay, RejectsBadCounterWidth)
{
    PolicyParams params = mjParams();
    params.counterBits = 1;
    EXPECT_DEATH({ MockingjayPolicy p(4, 4, params); }, "");
}

} // namespace
} // namespace garibaldi
