/**
 * @file
 * Full memory hierarchy of the modeled machine (Table 1): per-core
 * L1I/L1D, an L2 shared by each 4-core cluster, a non-inclusive banked
 * LLC shared by all cores, hardware prefetchers (L1D next-line, L2 GHB,
 * L1I I-SPY-like) and DDR5 DRAM.  No line is ever held by two L2
 * clusters: each core owns a disjoint physical zone
 * (core/page_table.cc), so the hierarchy models no cross-cluster
 * sharing.
 *
 * Accesses flow through an explicit staged pipeline over a first-class
 * Transaction (transaction.hh):
 *
 *   L1 probe → L2 probe → LLC probe → DRAM fill → upkeep
 *
 * Each stage records its timing leg on the transaction; writebacks and
 * prefetch issue are explicit upkeep steps rather than recursion.  The LLC exposes the Garibaldi companion hooks
 * and a virtual-listener fan-out used by the characterization monitors
 * (Fig. 3/4 reproduction).
 */

#ifndef GARIBALDI_MEM_HIERARCHY_HH
#define GARIBALDI_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/flat_tables.hh"
#include "mem/llc_bank_set.hh"
#include "mem/prefetch/ghb.hh"
#include "mem/prefetch/ispy.hh"
#include "mem/prefetch/next_line.hh"
#include "mem/transaction.hh"

namespace garibaldi
{

class Tracer;

/** Topology and per-level parameters. */
struct HierarchyParams
{
    std::uint32_t numCores = 8;
    std::uint32_t coresPerL2 = 4;
    CacheParams l1i;
    CacheParams l1d;
    CacheParams l2;
    CacheParams llc;
    DramParams dram;
    bool l1dNextLinePrefetcher = true;
    bool l2GhbPrefetcher = true;
    bool l1iIspyPrefetcher = true;

    /** LLC bank count (power of two; 1 = monolithic seed behavior). */
    std::uint32_t llcBanks = 1;
    /** Line-number bit where LLC bank interleaving starts. */
    std::uint32_t llcBankInterleaveShift = 0;
    /**
     * Per-bank contention model: tag/data slot occupancy per access in
     * cycles (0 = off; timing identical to the uncontended hierarchy)
     * and ports per bank array.  When on, transactions arriving at a
     * busy bank queue, and LLC MSHR pressure is charged per bank.
     */
    Cycle llcBankServiceCycles = 0;
    std::uint32_t llcBankPorts = 1;
    /**
     * DRAM-fed LLC MSHR occupancy: book each miss's pending-fill entry
     * at the owning bank until the DRAM channel's fill completion
     * instant plus the array write, instead of the legacy sum of every
     * request-path latency leg (which also folds in tag-port waits and
     * MSHR penalties).  Off (default) keeps the legacy book; the two
     * differ only when the bank contention model charges such legs or
     * a fill is served on the DRAM backfill path (whose completesAt is
     * the booked slot end, not the shorter request-path sum).
     */
    bool dramFedLlcMshrs = false;
};

/** The assembled cache/memory system. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    /** Service a demand access; returns the load-to-use outcome. */
    AccessOutcome access(const MemAccess &acc, Cycle now);

    /** Run @p txn through the staged pipeline. */
    void execute(Transaction &txn);

    /** Attach the Garibaldi module to the LLC banks. */
    void setLlcCompanion(LlcCompanion *companion);

    /** Subscribe to demand LLC accesses (monitors). */
    void addLlcListener(LlcEventListener *listener);

    /**
     * Attach the transaction tracer (obs/trace.hh); null detaches.
     * When unset (the default) the only cost on the access path is
     * one predictable null-pointer branch per finished transaction.
     */
    void setTracer(Tracer *t) { tracer = t; }

    std::uint32_t clusterOf(CoreId core) const
    {
        return core / params.coresPerL2;
    }
    std::uint32_t numClusters() const
    {
        return static_cast<std::uint32_t>(l2s.size());
    }

    Cache &l1i(CoreId core) { return *l1is.at(core); }
    Cache &l1d(CoreId core) { return *l1ds.at(core); }
    Cache &l2(std::uint32_t cluster) { return *l2s.at(cluster); }
    LlcBankSet &llc() { return *llcSet; }
    const LlcBankSet &llc() const { return *llcSet; }
    Dram &dram() { return *dramModel; }

    /** Aggregated statistics across all levels. */
    StatSet stats() const;

    const HierarchyParams &config() const { return params; }

  private:
    // ---- pipeline stages ---------------------------------------------
    /** L1 probe; @return true when the access was serviced there. */
    bool stageL1Probe(Transaction &txn, Cache &l1);
    /** L2 probe + descent into the LLC/DRAM stages on a miss. */
    void stageL2(Transaction &txn);
    /** LLC probe: listener/companion fan-out, hit leg, miss descent. */
    void stageLlc(Transaction &txn);
    /** LLC miss tail: pairwise prefetch, DRAM read, LLC fill. */
    void stageDramFill(Transaction &txn);
    /** L1 fill + writeback upkeep + MSHR-pressure penalty. */
    void stageL1Fill(Transaction &txn, Cache &l1);
    /** Collect + issue L1-attached prefetcher candidates. */
    void stageL1Prefetch(Transaction &txn);

    // ---- upkeep helpers ----------------------------------------------
    void issueGhbPrefetches(const Transaction &txn, Cache &l2c,
                            bool l2_hit);
    void llcOnlyPrefetch(Addr line_addr, CoreId core, Cycle now);
    void writebackToLlc(const Eviction &ev, CoreId core, Cycle now);
    void writebackToL2(const Eviction &ev, CoreId core, Cycle now);
    bool instrIsCritical(Addr line_addr);

    HierarchyParams params;
    std::vector<std::unique_ptr<Cache>> l1is;
    std::vector<std::unique_ptr<Cache>> l1ds;
    std::vector<std::unique_ptr<Cache>> l2s;
    std::unique_ptr<LlcBankSet> llcSet;
    std::unique_ptr<Dram> dramModel;
    std::vector<std::unique_ptr<NextLinePrefetcher>> l1dPf;
    std::vector<std::unique_ptr<IspyPrefetcher>> l1iPf;
    std::vector<std::unique_ptr<GhbPrefetcher>> l2Pf;
    LlcCompanion *companion = nullptr;
    Tracer *tracer = nullptr;
    std::vector<LlcEventListener *> llcListeners;
    std::vector<Addr> pfScratch; // prefetch scratch
    /** Instruction-criticality tracker; built only when the LLC's
     *  critical-only partition filter, its one reader, is on. */
    std::unique_ptr<DecayingCounterTable> instrCrit;
    std::uint64_t mshrStalls = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_HIERARCHY_HH
