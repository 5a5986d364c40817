/**
 * @file
 * End-to-end shape tests: the qualitative results the paper reports
 * must hold on small configurations — policy ordering on server mixes,
 * the instruction-oracle bound, Garibaldi's neutrality on SPEC, and
 * the protection/prefetch machinery actually firing in vivo.
 *
 * These run scaled-down systems (4 cores, short windows) so the whole
 * suite stays fast; the bench binaries reproduce the full figures.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "workloads/catalog.hh"

namespace garibaldi
{
namespace
{

SystemConfig
shapeConfig()
{
    SystemConfig cfg = defaultConfig(4);
    cfg.coresPerL2 = 4;
    return cfg;
}

class ShapeTest : public ::testing::Test
{
  protected:
    static ExperimentContext &
    ctx()
    {
        static ExperimentContext c(shapeConfig(), 80000, 150000);
        return c;
    }
};

TEST_F(ShapeTest, MockingjayBeatsLruOnServerMix)
{
    Mix m = homogeneousMix("verilator", 4);
    double lru = ctx().runPolicy(PolicyKind::LRU, false, m)
                     .ipcHarmonicMean();
    double mj = ctx().runPolicy(PolicyKind::Mockingjay, false, m)
                    .ipcHarmonicMean();
    EXPECT_GT(mj, lru);
}

TEST_F(ShapeTest, GaribaldiDoesNotHurtMockingjayOnServer)
{
    Mix m = homogeneousMix("verilator", 4);
    double mj = ctx().runPolicy(PolicyKind::Mockingjay, false, m)
                    .ipcHarmonicMean();
    double mjg = ctx().runPolicy(PolicyKind::Mockingjay, true, m)
                     .ipcHarmonicMean();
    // Garibaldi must at worst be a small perturbation, and typically a
    // gain, on instruction-victim workloads.
    EXPECT_GT(mjg, mj * 0.995);
}

TEST_F(ShapeTest, GaribaldiReducesIfetchStalls)
{
    Mix m = homogeneousMix("verilator", 4);
    SimResult mj = ctx().runPolicy(PolicyKind::Mockingjay, false, m);
    SimResult mjg = ctx().runPolicy(PolicyKind::Mockingjay, true, m);
    EXPECT_LT(mjg.ifetchStallCycles(), mj.ifetchStallCycles());
}

TEST_F(ShapeTest, GaribaldiLowersLlcInstrMissRate)
{
    Mix m = homogeneousMix("verilator", 4);
    SimResult mj = ctx().runPolicy(PolicyKind::Mockingjay, false, m);
    SimResult mjg = ctx().runPolicy(PolicyKind::Mockingjay, true, m);
    double mr_mj = mj.mem.get("llc.instr_misses") /
                   mj.mem.get("llc.instr_accesses");
    double mr_mjg = mjg.mem.get("llc.instr_misses") /
                    mjg.mem.get("llc.instr_accesses");
    EXPECT_LT(mr_mjg, mr_mj);
}

TEST_F(ShapeTest, OracleBoundsInstructionManagement)
{
    Mix m = homogeneousMix("verilator", 4);
    SimResult mjg = ctx().runPolicy(PolicyKind::Mockingjay, true, m);
    SystemConfig oracle =
        configWithPolicy(ctx().baseConfig(), PolicyKind::Mockingjay,
                         false);
    oracle.llcInstrOracle = true;
    SimResult orc = ctx().run(oracle, m);
    EXPECT_GE(orc.ipcHarmonicMean() * 1.001, mjg.ipcHarmonicMean());
}

TEST_F(ShapeTest, GaribaldiInvisibleOnSpec)
{
    Mix m = homogeneousMix("bwaves", 4);
    SimResult mj = ctx().runPolicy(PolicyKind::Mockingjay, false, m);
    SimResult mjg = ctx().runPolicy(PolicyKind::Mockingjay, true, m);
    // Almost no instruction traffic at the LLC (Fig. 3(b)), so no
    // effect beyond noise.
    EXPECT_NEAR(mjg.ipcHarmonicMean() / mj.ipcHarmonicMean(), 1.0,
                0.02);
}

TEST_F(ShapeTest, ProtectionMachineryFiresOnServerMix)
{
    Mix m = homogeneousMix("verilator", 4);
    SimResult mjg = ctx().runPolicy(PolicyKind::Mockingjay, true, m);
    EXPECT_GT(mjg.garibaldi.get("protection_grants"), 0.0);
    EXPECT_GT(mjg.garibaldi.get("paired_updates"), 0.0);
    EXPECT_GT(mjg.mem.get("llc.qbs_protections"), 0.0);
}

TEST_F(ShapeTest, HelperTablesCoverMostPairings)
{
    Mix m = homogeneousMix("tpcc", 4);
    SimResult mjg = ctx().runPolicy(PolicyKind::Mockingjay, true, m);
    double paired = mjg.garibaldi.get("paired_updates");
    double unpaired = mjg.garibaldi.get("unpaired_data");
    // §6: a 128-entry helper table covers nearly all translations.
    EXPECT_GT(paired / (paired + unpaired), 0.9);
}

TEST_F(ShapeTest, ServerInstrShareExceedsSpecByOrders)
{
    Mix server = homogeneousMix("tomcat", 4);
    Mix spec = homogeneousMix("lbm", 4);
    SimResult rs = ctx().runPolicy(PolicyKind::LRU, false, server);
    SimResult rp = ctx().runPolicy(PolicyKind::LRU, false, spec);
    double server_share = rs.mem.get("llc.instr_accesses") /
                          rs.mem.get("llc.accesses");
    double spec_share = rp.mem.get("llc.instr_accesses") /
                        std::max(1.0, rp.mem.get("llc.accesses"));
    EXPECT_GT(server_share, 10 * spec_share);
}

TEST_F(ShapeTest, DynamicThresholdRotates)
{
    Mix m = homogeneousMix("smallbank", 4);
    SimResult mjg = ctx().runPolicy(PolicyKind::Mockingjay, true, m);
    EXPECT_GT(mjg.garibaldi.get("threshold.rotations"), 2.0);
}

TEST_F(ShapeTest, GaribaldiComposesWithOtherPolicies)
{
    Mix m = homogeneousMix("verilator", 4);
    for (PolicyKind kind : {PolicyKind::DRRIP, PolicyKind::Hawkeye}) {
        SimResult base = ctx().runPolicy(kind, false, m);
        SimResult with = ctx().runPolicy(kind, true, m);
        EXPECT_GT(with.ipcHarmonicMean(),
                  base.ipcHarmonicMean() * 0.99)
            << policyKindName(kind);
        EXPECT_LE(with.ifetchStallCycles(),
                  static_cast<Cycle>(base.ifetchStallCycles() * 1.02))
            << policyKindName(kind);
    }
}

TEST_F(ShapeTest, PartitioningProtectsButCostsAssociativity)
{
    Mix m = homogeneousMix("verilator", 4);
    SystemConfig part =
        configWithPolicy(ctx().baseConfig(), PolicyKind::LRU, false);
    part.llcInstrPartitionWays = 8; // starves data (Fig. 14(d) tail)
    SimResult heavy = ctx().run(part, m);
    SimResult lru = ctx().runPolicy(PolicyKind::LRU, false, m);
    // Over-partitioning must not beat a sane configuration by much —
    // 8 of 12 ways for instructions starves data.
    EXPECT_LT(heavy.ipcHarmonicMean(), lru.ipcHarmonicMean() * 1.05);
}

} // namespace
} // namespace garibaldi
