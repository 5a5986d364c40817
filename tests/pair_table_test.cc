/**
 * @file
 * Pair-table, D_PPN-table and helper-table unit tests, including the
 * paper's worked examples: the Fig. 8 IL_PA reconstruction, the
 * Fig. 9(c) aging walk-through (cost 25, color 5 -> 0, threshold 23),
 * and the Fig. 10(b) DL_PA old-bit/sctr rules.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "garibaldi/dppn_table.hh"
#include "garibaldi/helper_table.hh"
#include "garibaldi/pair_table.hh"

namespace garibaldi
{
namespace
{

GaribaldiParams
smallParams(unsigned k = 1)
{
    GaribaldiParams p;
    p.pairTableEntries = 256;
    p.dppnEntries = 256;
    p.k = k;
    p.missCostInit = 32;
    return p;
}

// --------------------------------------------------------------------
// Helper table
// --------------------------------------------------------------------

TEST(HelperTable, RecordThenLookup)
{
    HelperTable h(128, 4);
    h.record(0xff3cd19, 0x0d1ab916);
    auto ppn = h.lookup(0xff3cd19);
    ASSERT_TRUE(ppn.has_value());
    EXPECT_EQ(*ppn, 0x0d1ab916u);
}

TEST(HelperTable, Fig8IlpaReconstruction)
{
    // Fig. 8: data access with PC 0xff..f3cd19c00 and helper PPN
    // 0x0d1ab916 deduces IL_PA 0x0d1ab916c00.
    Addr pc = 0xfffff3cd19c00ULL;
    Addr ppn = 0x0d1ab916;
    EXPECT_EQ(HelperTable::deduceIlpa(ppn, pc), 0x0d1ab916c00ULL);
}

TEST(HelperTable, DeducedIlpaIsLineAligned)
{
    Addr pc = 0x1234c35; // arbitrary in-page offset
    Addr il = HelperTable::deduceIlpa(0x77, pc);
    EXPECT_EQ(il % kLineBytes, 0u);
    EXPECT_EQ(pageNumber(il), 0x77u);
    EXPECT_EQ(lineInPage(il), lineInPage(pc));
}

TEST(HelperTable, MissReturnsNullopt)
{
    HelperTable h(128, 4);
    EXPECT_FALSE(h.lookup(0xabc).has_value());
    EXPECT_EQ(h.misses(), 1u);
}

TEST(HelperTable, RecordUpdatesExistingMapping)
{
    HelperTable h(128, 4);
    h.record(0x100, 0x1);
    h.record(0x100, 0x2);
    EXPECT_EQ(*h.lookup(0x100), 0x2u);
}

TEST(HelperTable, ConflictEvictsWeakestEntry)
{
    HelperTable h(4, 4); // single set of 4
    for (Addr v = 0; v < 4; ++v)
        h.record(v, v + 100);
    // Reinforce 0..2 repeatedly; 3 stays weak.
    for (int i = 0; i < 6; ++i)
        for (Addr v = 0; v < 3; ++v)
            h.lookup(v);
    h.record(99, 199); // displaces the weak entry
    EXPECT_TRUE(h.lookup(0).has_value());
    EXPECT_TRUE(h.lookup(99).has_value());
    EXPECT_FALSE(h.lookup(3).has_value());
}

// --------------------------------------------------------------------
// D_PPN table
// --------------------------------------------------------------------

TEST(DppnTable, AllocateAndLookupRoundTrip)
{
    DppnTable t(64);
    auto idx = t.allocate(0xdeadb);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*t.lookup(*idx), 0xdeadbu);
}

TEST(DppnTable, ReallocationReinforces)
{
    DppnTable t(64);
    auto i1 = t.allocate(0x5);
    auto i2 = t.allocate(0x5);
    EXPECT_EQ(*i1, *i2);
}

TEST(DppnTable, ConflictNeedsDecayBeforeReplacement)
{
    DppnTable t(1); // every frame collides
    ASSERT_TRUE(t.allocate(0xa).has_value());
    // Incumbent sctr = 4; the first conflicting allocate decays it to
    // 3 (< threshold) and replaces.
    auto idx = t.allocate(0xb);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*t.lookup(*idx), 0xbu);
}

TEST(DppnTable, ReinforcedEntryResistsReplacement)
{
    DppnTable t(1);
    for (int i = 0; i < 4; ++i)
        t.allocate(0xa); // sctr rises to 7
    EXPECT_FALSE(t.allocate(0xb).has_value()); // 7 -> 6, rejected
    EXPECT_FALSE(t.allocate(0xb).has_value()); // 6 -> 5, rejected
    EXPECT_FALSE(t.allocate(0xb).has_value()); // 5 -> 4, rejected
    EXPECT_TRUE(t.allocate(0xb).has_value());  // 4 -> 3 < 4, replaced
}

TEST(DppnTable, InvalidIndexLookup)
{
    DppnTable t(8);
    EXPECT_FALSE(t.lookup(3).has_value());
    EXPECT_FALSE(t.lookup(100).has_value());
}

// --------------------------------------------------------------------
// Pair table: cost dynamics
// --------------------------------------------------------------------

TEST(PairTable, FreshEntryStartsAtInitPlusOutcome)
{
    GaribaldiParams gp = smallParams();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000, dl = 0x900000;
    pt.updateOnDataAccess(il, dl, /*hit=*/true, 0, 32);
    auto d = pt.debugEntry(il);
    ASSERT_TRUE(d.tagMatch);
    EXPECT_EQ(d.missCost, 33u); // init 32 + 1
}

TEST(PairTable, HitsAndMissesMoveCost)
{
    GaribaldiParams gp = smallParams();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000, dl = 0x900000;
    for (int i = 0; i < 5; ++i)
        pt.updateOnDataAccess(il, dl, true, 0, 32);
    EXPECT_EQ(pt.debugEntry(il).missCost, 37u);
    for (int i = 0; i < 8; ++i)
        pt.updateOnDataAccess(il, dl, false, 0, 32);
    EXPECT_EQ(pt.debugEntry(il).missCost, 29u);
}

TEST(PairTable, CostSaturatesAt6Bits)
{
    GaribaldiParams gp = smallParams();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000;
    for (int i = 0; i < 100; ++i)
        pt.updateOnDataAccess(il, 0x900000, true, 0, 32);
    EXPECT_EQ(pt.debugEntry(il).missCost, 63u);
    for (int i = 0; i < 200; ++i)
        pt.updateOnDataAccess(il, 0x900000, false, 0, 32);
    EXPECT_EQ(pt.debugEntry(il).missCost, 0u);
}

// --------------------------------------------------------------------
// Pair table: aging via coloring (Fig. 9(c))
// --------------------------------------------------------------------

TEST(PairTable, Fig9cAgingExample)
{
    // Entry: cost 25, color 5.  Queried at color 0 with threshold 23:
    // distance 5 -> 6 -> 7 -> 0 is 3 steps, aged cost 25 - 3 = 22,
    // which does NOT exceed 23 => not protected; and the query must
    // not modify the entry.
    GaribaldiParams gp = smallParams();
    gp.missCostInit = 24; // cost 25 after one hot update
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x40000;
    pt.updateOnDataAccess(il, 0x900000, true, /*color=*/5, 23);
    ASSERT_EQ(pt.debugEntry(il).missCost, 25u);
    ASSERT_EQ(pt.debugEntry(il).color, 5u);

    PairQueryResult q = pt.query(il, /*color=*/0);
    ASSERT_TRUE(q.found);
    EXPECT_EQ(q.agedCost, 22u);
    EXPECT_FALSE(q.agedCost > 23u); // not protected

    // §5.2: "the entry's color and miss cost are not updated by the
    // query, remaining 5 and 25."
    EXPECT_EQ(pt.debugEntry(il).missCost, 25u);
    EXPECT_EQ(pt.debugEntry(il).color, 5u);
}

TEST(PairTable, ColorDistanceWraps)
{
    GaribaldiParams gp = smallParams();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    EXPECT_EQ(pt.colorDistance(5, 0), 3u);
    EXPECT_EQ(pt.colorDistance(0, 5), 5u);
    EXPECT_EQ(pt.colorDistance(7, 0), 1u);
    EXPECT_EQ(pt.colorDistance(3, 3), 0u);
}

TEST(PairTable, AgedCostFloorsAtZero)
{
    GaribaldiParams gp = smallParams();
    gp.missCostInit = 1;
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x40000;
    pt.updateOnDataAccess(il, 0x900000, false, 0, 32); // cost 0
    PairQueryResult q = pt.query(il, 6);
    EXPECT_TRUE(q.found);
    EXPECT_EQ(q.agedCost, 0u);
}

TEST(PairTable, UpdateFoldsAgingIntoEntry)
{
    GaribaldiParams gp = smallParams();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x40000;
    pt.updateOnDataAccess(il, 0x900000, true, 0, 32); // cost 33 @ c0
    pt.updateOnDataAccess(il, 0x900000, true, 2, 32);
    // Aged by 2 (33 -> 31), then +1 => 32, stamped with color 2.
    EXPECT_EQ(pt.debugEntry(il).missCost, 32u);
    EXPECT_EQ(pt.debugEntry(il).color, 2u);
}

// --------------------------------------------------------------------
// Pair table: replacement on collisions (§5.2)
// --------------------------------------------------------------------

TEST(PairTable, HighCostIncumbentSurvivesCollision)
{
    GaribaldiParams gp = smallParams();
    gp.pairTableEntries = 1; // everything collides
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il_hot = 0x10000, il_new = 0x20000;
    // Drive the incumbent's cost high.
    for (int i = 0; i < 20; ++i)
        pt.updateOnDataAccess(il_hot, 0x900000, true, 0, 32);
    ASSERT_EQ(pt.debugEntry(il_hot).missCost, 52u);
    // A colliding update with threshold 32: aged cost 52 > 32 =>
    // incumbent preserved, newcomer not allocated.
    pt.updateOnDataAccess(il_new, 0x910000, true, 0, 32);
    EXPECT_TRUE(pt.debugEntry(il_hot).tagMatch);
    EXPECT_FALSE(pt.debugEntry(il_new).tagMatch);
}

TEST(PairTable, DecayedIncumbentIsReplaced)
{
    GaribaldiParams gp = smallParams();
    gp.pairTableEntries = 1;
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il_old = 0x10000, il_new = 0x20000;
    pt.updateOnDataAccess(il_old, 0x900000, true, 0, 32); // cost 33
    // Seven colors later the aged cost is 26 <= 32: replaced.
    pt.updateOnDataAccess(il_new, 0x910000, true, 7, 32);
    EXPECT_TRUE(pt.debugEntry(il_new).tagMatch);
}

TEST(PairTable, PreservedIncumbentAbsorbsAging)
{
    GaribaldiParams gp = smallParams();
    gp.pairTableEntries = 1;
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il_hot = 0x10000, il_new = 0x20000;
    for (int i = 0; i < 20; ++i)
        pt.updateOnDataAccess(il_hot, 0x900000, true, 0, 32); // 52
    pt.updateOnDataAccess(il_new, 0x910000, true, 2, 32);
    // Preserved with aged cost 50 and refreshed color 2 (§5.2: "we
    // update the miss cost with the aged miss cost ... and update the
    // color field of entry to current").
    EXPECT_TRUE(pt.debugEntry(il_hot).tagMatch);
    EXPECT_EQ(pt.debugEntry(il_hot).missCost, 50u);
    EXPECT_EQ(pt.debugEntry(il_hot).color, 2u);
}

// --------------------------------------------------------------------
// DL_PA field management (Fig. 10(b))
// --------------------------------------------------------------------

TEST(PairTable, Rule1MatchingFieldReinforced)
{
    GaribaldiParams gp = smallParams(2);
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000, dl = 0x900000;
    pt.updateOnDataAccess(il, dl, true, 0, 32); // records the field
    auto before = pt.debugEntry(il);
    ASSERT_TRUE(before.fields[0].valid);
    unsigned sctr_before = before.fields[0].sctr;
    pt.updateOnDataAccess(il, dl, true, 0, 32); // rule 1: match
    auto after = pt.debugEntry(il);
    EXPECT_EQ(after.fields[0].sctr, sctr_before + 1);
    EXPECT_FALSE(after.fields[0].oldBit);
    EXPECT_EQ(after.fields[0].dlpa, lineAlign(dl));
}

TEST(PairTable, Rule2NoArmedFieldBypasses)
{
    GaribaldiParams gp = smallParams(1);
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000;
    pt.updateOnDataAccess(il, 0x900000, true, 0, 32); // field armed->used
    // Old bit now clear; a different data line must NOT displace it
    // (and its sctr must not change: the access bypasses recording).
    auto before = pt.debugEntry(il);
    pt.updateOnDataAccess(il, 0x910000, true, 0, 32);
    auto after = pt.debugEntry(il);
    EXPECT_EQ(after.fields[0].dlpa, before.fields[0].dlpa);
    EXPECT_EQ(after.fields[0].sctr, before.fields[0].sctr);
}

TEST(PairTable, Rule23ArmedFieldDecaysThenReplaced)
{
    GaribaldiParams gp = smallParams(1);
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000, dl1 = 0x900000, dl2 = 0x910000;
    pt.updateOnDataAccess(il, dl1, true, 0, 32); // field: dl1, sctr 4
    pt.onInstrMiss(il);                          // arm old bits
    // Rule 2: mismatching access clears the old bit and decrements the
    // sctr to 3 < 4 => rule 3 replaces the field with dl2.
    pt.updateOnDataAccess(il, dl2, true, 0, 32);
    auto d = pt.debugEntry(il);
    EXPECT_EQ(d.fields[0].dlpa, lineAlign(dl2));
    EXPECT_EQ(d.fields[0].sctr, 4u);
}

TEST(PairTable, ReinforcedFieldSurvivesOneMismatch)
{
    GaribaldiParams gp = smallParams(1);
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000, dl1 = 0x900000, dl2 = 0x910000;
    pt.updateOnDataAccess(il, dl1, true, 0, 32); // sctr 4
    pt.updateOnDataAccess(il, dl1, true, 0, 32); // rule 1: sctr 5
    pt.onInstrMiss(il);
    pt.updateOnDataAccess(il, dl2, true, 0, 32); // sctr 5 -> 4, kept
    EXPECT_EQ(pt.debugEntry(il).fields[0].dlpa, lineAlign(dl1));
}

TEST(PairTable, InstrMissArmsAllFields)
{
    GaribaldiParams gp = smallParams(2);
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000;
    pt.updateOnDataAccess(il, 0x900000, true, 0, 32);
    pt.updateOnDataAccess(il, 0x910000, true, 0, 32);
    auto before = pt.debugEntry(il);
    ASSERT_FALSE(before.fields[0].oldBit);
    pt.onInstrMiss(il);
    auto after = pt.debugEntry(il);
    EXPECT_TRUE(after.fields[0].oldBit);
    EXPECT_TRUE(after.fields[1].oldBit);
}

TEST(PairTable, ColorChangeArmsFields)
{
    GaribaldiParams gp = smallParams(1);
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000;
    pt.updateOnDataAccess(il, 0x900000, true, 0, 32);
    ASSERT_FALSE(pt.debugEntry(il).fields[0].oldBit);
    // Same entry updated at a new color: old bits re-arm first, so the
    // mismatching line can take the (decayed) slot per rules 2/3.
    pt.updateOnDataAccess(il, 0x920000, true, 1, 32);
    EXPECT_EQ(pt.debugEntry(il).fields[0].dlpa, lineAlign(0x920000));
}

TEST(PairTable, KZeroRecordsNoFields)
{
    GaribaldiParams gp = smallParams(0);
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000;
    pt.updateOnDataAccess(il, 0x900000, true, 0, 32);
    EXPECT_FALSE(pt.debugEntry(il).fields[0].valid);
    std::vector<Addr> out;
    pt.collectPrefetchCandidates(il, out);
    EXPECT_TRUE(out.empty());
}

TEST(PairTable, PrefetchCandidatesReconstructAddresses)
{
    GaribaldiParams gp = smallParams(2);
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Addr il = 0x10000;
    Addr dl1 = 0x900040, dl2 = 0xa00080;
    pt.updateOnDataAccess(il, dl1, true, 0, 32);
    pt.updateOnDataAccess(il, dl2, true, 0, 32);
    std::vector<Addr> out;
    pt.collectPrefetchCandidates(il, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], lineAlign(dl1));
    EXPECT_EQ(out[1], lineAlign(dl2));
}

TEST(PairTable, QueryUnknownLineNotFound)
{
    GaribaldiParams gp = smallParams();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    EXPECT_FALSE(pt.query(0x777000, 0).found);
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
 * Drive a small pair table (and its D_PPN table) with a random mix of
 * data accesses, instruction misses, queries and prefetch-candidate
 * reads, folding every answer and the final entries into an FNV-1a
 * hash.  The pool has four instruction lines per entry and more data
 * pages than D_PPN entries, so collisions, field replacement, bypass
 * and unresolvable fields all occur.
 */
std::uint64_t
pairTableTraceHash(unsigned k)
{
    GaribaldiParams gp;
    gp.pairTableEntries = 128;
    gp.dppnEntries = 64;
    gp.k = k;
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Pcg32 rng(41, k);
    std::uint64_t h = 14695981039346656037ull;
    unsigned color = 0;
    std::vector<Addr> out;
    for (int i = 0; i < 60000; ++i) {
        if (rng.nextBounded(2048) == 0)
            color = (color + 1) & 7;
        Addr il = Addr{rng.nextBounded(512)} << kLineShift;
        switch (rng.nextBounded(8)) {
          case 0:
            pt.onInstrMiss(il);
            break;
          case 1: {
              PairQueryResult q = pt.query(il, color);
              h = fnv1a(h, q.found ? 1 + q.agedCost : 0);
              break;
          }
          case 2:
            out.clear();
            pt.collectPrefetchCandidates(il, out);
            h = fnv1a(h, out.size());
            for (Addr a : out)
                h = fnv1a(h, a);
            break;
          default: {
              Addr dl = (Addr{rng.nextBounded(96)} << kPageShift) |
                        (Addr{rng.nextBounded(4)} << kLineShift);
              pt.updateOnDataAccess(il, dl, rng.chance(0.6), color,
                                    rng.nextBounded(48));
              break;
          }
        }
    }
    for (Addr n = 0; n < 512; ++n) {
        PairTable::DebugEntry d = pt.debugEntry(n << kLineShift);
        h = fnv1a(h, (d.valid ? 1u : 0u) | (d.tagMatch ? 2u : 0u));
        h = fnv1a(h, d.missCost);
        h = fnv1a(h, d.color);
        for (const auto &f : d.fields) {
            h = fnv1a(h, (f.valid ? 1u : 0u) | (f.oldBit ? 2u : 0u));
            h = fnv1a(h, f.sctr);
            h = fnv1a(h, f.dlpa);
        }
    }
    StatSet s = pt.stats();
    for (const char *stat : {"collisions_preserved", "collisions_replaced",
                             "field_records", "field_bypasses"})
        EXPECT_GT(s.get(stat), 0.0) << stat << " at k = " << k;
    for (const auto &[name, value] : s.entries())
        h = fnv1a(h, static_cast<std::uint64_t>(value));
    return h;
}

// Recorded from the table with eight DL_PA fields in every entry, before
// entries were sized by k.
TEST(PairTable, DecisionTracePinnedK1)
{
    EXPECT_EQ(pairTableTraceHash(1), 15013776782783651577ull);
}

TEST(PairTable, DecisionTracePinnedK2)
{
    EXPECT_EQ(pairTableTraceHash(2), 11572105265139445086ull);
}

TEST(PairTable, DecisionTracePinnedK8)
{
    EXPECT_EQ(pairTableTraceHash(8), 168262513161700521ull);
}

TEST(PairTable, RejectsOversizedK)
{
    GaribaldiParams gp = smallParams();
    gp.k = 9;
    DppnTable dppn(gp.dppnEntries);
    EXPECT_EXIT({ PairTable pt(gp, dppn); },
                testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace garibaldi
