/**
 * @file
 * LLC characterization monitors reproducing the analysis of §3:
 *  - ReuseDistanceMonitor: per-set LRU stack distances of instruction
 *    vs data lines (Fig. 3(a));
 *  - LineFrequencyMonitor: accesses per distinct cacheline (Fig. 3(c));
 *  - PairingMonitor: instruction miss rate conditioned on the hotness
 *    (hit/miss) of the data its PC-page triggers (Fig. 4(c)) and the
 *    data-sharing degree (§3.2).
 *
 * Monitors implement the LlcEventListener interface and subscribe via
 * MemoryHierarchy::addLlcListener; they are policy-agnostic.
 */

#ifndef GARIBALDI_SIM_MONITORS_HH
#define GARIBALDI_SIM_MONITORS_HH

#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "mem/flat_tables.hh"
#include "mem/hierarchy.hh"
#include "mem/transaction.hh"

namespace garibaldi
{

/** LRU stack-distance tracker over sampled LLC sets. */
class ReuseDistanceMonitor : public LlcEventListener
{
  public:
    /**
     * @param llc_sets sets in the observed LLC
     * @param sample_shift sample one of 2^shift sets
     */
    ReuseDistanceMonitor(std::uint32_t llc_sets,
                         unsigned sample_shift = 4);

    /** Record one demand LLC access. */
    void observe(const MemAccess &acc, bool hit);

    void
    onLlcAccess(const Transaction &txn, bool hit) override
    {
        observe(txn.req, hit);
    }

    /** Mean reuse (stack) distance of instruction lines. */
    double instrMeanDistance() const { return instrDist.mean(); }
    /** Mean reuse (stack) distance of data lines. */
    double dataMeanDistance() const { return dataDist.mean(); }

    const Histogram &instrHistogram() const { return instrDist; }
    const Histogram &dataHistogram() const { return dataDist; }

    StatSet stats() const;

  private:
    std::uint32_t numSets;
    unsigned sampleShift;
    /**
     * Per sampled set: LRU stack of line addresses (front = MRU).
     * Dense, indexed by set >> sampleShift — only sets whose low
     * sampleShift bits are zero are observed, so the mapping is a
     * bijection onto [0, numSets >> sampleShift).
     */
    std::vector<std::vector<Addr>> stacks;
    Histogram instrDist{1, 256};
    Histogram dataDist{1, 256};
};

/** Per-line access frequency split by class. */
class LineFrequencyMonitor : public LlcEventListener
{
  public:
    void observe(const MemAccess &acc, bool hit);

    void
    onLlcAccess(const Transaction &txn, bool hit) override
    {
        observe(txn.req, hit);
    }

    /** Mean accesses per distinct instruction line (Fig. 3(c)). */
    double instrAccessesPerLine() const;
    /** Mean accesses per distinct data line. */
    double dataAccessesPerLine() const;
    /** Fraction of LLC accesses that are instruction fetches (3(b)). */
    double instrAccessRatio() const;

    StatSet stats() const;

  private:
    /** Keyed by line number (open-addressed; no per-node allocation). */
    FlatLineMap<std::uint32_t> instrCounts;
    FlatLineMap<std::uint32_t> dataCounts;
    std::uint64_t instrAccesses = 0;
    std::uint64_t dataAccesses = 0;
};

/** Fig. 4(c): instruction miss rate conditioned on paired-data hotness. */
class PairingMonitor : public LlcEventListener
{
  public:
    void observe(const MemAccess &acc, bool hit);

    void
    onLlcAccess(const Transaction &txn, bool hit) override
    {
        observe(txn.req, hit);
    }

    /**
     * Miss rate of instruction lines whose paired data mostly hits
     * (MissRate_DataHit of Fig. 4(c)).
     */
    double instrMissRateDataHot() const;
    /** Miss rate of instruction lines whose paired data mostly misses. */
    double instrMissRateDataCold() const;
    /** Mean distinct instruction pages touching each hot data line. */
    double dataSharingDegree() const;

    StatSet stats() const;

  private:
    struct InstrLineStats
    {
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        std::uint64_t dataHits = 0;
        std::uint64_t dataMisses = 0;
    };

    /**
     * Consecutive-distinct sharer sketch of one hot data line.  A live
     * entry always has count >= 1, so count == 0 doubles as the
     * "newly inserted" marker (the try_emplace of the map it replaces).
     */
    struct SharerEntry
    {
        Addr last = 0;
        std::uint32_t count = 0;
    };

    /** Keyed by instruction line number (PC-derived). */
    FlatLineMap<InstrLineStats> instrLines;
    /** Data line number -> consecutive-distinct sharer sketch. */
    FlatLineMap<SharerEntry> dataSharers;
};

/**
 * Per-bank demand-traffic / queuing profile of the banked LLC (the
 * contention-model companion): attributes each demand access to its
 * bank with the same line-number interleave mapping the LlcBankSet
 * uses, and records the bank-arbitration delay the transaction accrued
 * by probe time (tag wait, plus data-array wait on hits; the fill-side
 * wait of misses lands after the fan-out and is reported by the
 * hierarchy's llc.queue_cycles stat instead).
 */
class BankQueueMonitor : public LlcEventListener
{
  public:
    /**
     * @param banks LLC bank count (power of two)
     * @param interleave_shift line-number bit where bank selection
     *        starts (must match the observed LlcBankSet)
     */
    BankQueueMonitor(std::uint32_t banks,
                     std::uint32_t interleave_shift);

    /** Mapping taken from the hierarchy's own LLC banking knobs — the
     *  safe constructor, immune to knob/monitor divergence. */
    explicit BankQueueMonitor(const HierarchyParams &params)
        : BankQueueMonitor(params.llcBanks,
                           params.llcBankInterleaveShift)
    {
    }

    void onLlcAccess(const Transaction &txn, bool hit) override;

    /** Bank servicing @p line_addr (mirrors LlcBankSet::bankOf). */
    std::uint32_t bankOf(Addr line_addr) const;

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks.size());
    }
    /** Max-over-mean per-bank demand accesses (1.0 = perfectly even). */
    double accessImbalance() const;
    /** Mean probe-time queuing delay per demand access, in cycles. */
    double meanQueueDelay() const;

    StatSet stats() const;

  private:
    struct BankCounters
    {
        std::uint64_t accesses = 0;
        std::uint64_t hits = 0;
        std::uint64_t queuedAccesses = 0;
        std::uint64_t queueCycles = 0;
    };

    std::vector<BankCounters> banks;
    std::uint32_t interleaveShift;
    Addr bankMask;
};

} // namespace garibaldi

#endif // GARIBALDI_SIM_MONITORS_HH
