/**
 * @file
 * Set-associative cache with pluggable replacement, MSHR-style pending
 * miss merging, per-line instruction bits, optional way partitioning
 * (Fig. 14(d) baseline), the instruction-oracle mode of Fig. 3(d), and
 * the Garibaldi companion hooks (QBS protection + pairwise prefetch).
 *
 * The replacement policy is held by value: a closed variant over the
 * policy classes (replacement.hh) whose hooks dispatch on its index,
 * with no heap object and no virtual call.  The pending-fill book and
 * the oracle's seen-set are open-addressed flat tables
 * (flat_tables.hh): no node allocation or hashing through
 * std::unordered_map on the access path.  Only an oracle cache builds
 * the seen-set.
 */

#ifndef GARIBALDI_MEM_CACHE_HH
#define GARIBALDI_MEM_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "common/zeroed_array.hh"
#include "mem/flat_tables.hh"
#include "mem/llc_companion.hh"
#include "mem/policy/replacement.hh"
#include "mem/request.hh"

namespace garibaldi
{

/** Static configuration of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    Cycle latency = 3;        //!< hit latency in cycles
    std::uint32_t mshrs = 10; //!< outstanding distinct line misses
    PolicyKind policy = PolicyKind::LRU;
    PolicyParams policyParams{};

    /** LLC ways per set reserved for (critical) instruction lines. */
    std::uint32_t instrPartitionWays = 0;
    /** Partition admits only criticality-marked instruction lines. */
    bool partitionCriticalOnly = false;
    /** Fig. 3(d) I-oracle: instructions always hit after first touch. */
    bool instrOracle = false;

    /**
     * Bank-interleaving splice: when this cache is one bank of an
     * interleaved set, @c indexSkipBits bank-select bits starting at
     * line-number bit @c indexSkipShift are removed from the set index
     * (the tag keeps the full line number).  Zero bits = monolithic
     * indexing, bit-identical to the unbanked cache.
     */
    std::uint32_t indexSkipShift = 0;
    std::uint32_t indexSkipBits = 0;

    /**
     * Bank contention model (LLC banks): when @c bankServiceCycles is
     * non-zero, every tag probe occupies one of @c bankPorts tag-array
     * slots for that many cycles, and every hit read or fill write
     * occupies a data-array slot likewise.  A request finding all slots
     * busy queues until the earliest one frees and reports the wait.
     * Zero (the default) disables the model entirely: no occupancy is
     * tracked and timing is bit-identical to the uncontended cache.
     */
    Cycle bankServiceCycles = 0;
    std::uint32_t bankPorts = 1;
};

/** Aggregate counters of one cache. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t instrAccesses = 0;
    std::uint64_t instrHits = 0;
    std::uint64_t instrMisses = 0;
    std::uint64_t writebacksOut = 0;  //!< dirty lines pushed below
    std::uint64_t evictions = 0;
    std::uint64_t instrEvictions = 0;
    std::uint64_t prefetchInserts = 0;
    std::uint64_t prefetchUseful = 0; //!< demand hit on prefetched line
    std::uint64_t mshrMerges = 0;     //!< demand found line in flight
    std::uint64_t qbsQueries = 0;
    std::uint64_t qbsProtections = 0;
    std::uint64_t partitionInstrInserts = 0;

    // Bank-contention counters (all zero when the model is off).
    std::uint64_t bankReservations = 0; //!< tag/data slot grants
    std::uint64_t bankBackfills = 0;    //!< out-of-order grants in past capacity
    std::uint64_t queuedAccesses = 0;   //!< grants that had to wait
    std::uint64_t tagQueueCycles = 0;   //!< cycles queued for a tag slot
    std::uint64_t dataQueueCycles = 0;  //!< cycles queued for a data slot
    std::uint64_t mshrStallCycles = 0;  //!< per-bank MSHR-full penalties
    /**
     * Set when the owning cache models bank contention; accumulate()
     * ORs it so a banked set reports the queue counters iff its banks
     * track them.  toStatSet() keys the queue stats on this flag, which
     * keeps the exported stat surface (and thus every default bench
     * output) identical to the pre-contention model when off.
     */
    bool contentionModeled = false;

    double hitRate() const
    {
        return accesses ? static_cast<double>(hits) / accesses : 0.0;
    }
    double instrMissRate() const
    {
        return instrAccesses
            ? static_cast<double>(instrMisses) / instrAccesses : 0.0;
    }

    /** Add every counter of @p other into this (bank aggregation). */
    void accumulate(const CacheStats &other);

    StatSet toStatSet() const;
};

/**
 * Snapshot of one line frame (tests and monitors).  Includes the 1-bit
 * instruction indicator the paper adds to L2 and LLC blocks (§4.2) and a
 * prefetched bit (modern caches distinguish prefetched lines, §5.3).
 */
struct CacheLine
{
    Addr tag = 0;            //!< full line address (paddr >> 6)
    bool valid = false;
    bool dirty = false;
    bool isInstr = false;    //!< 1-bit instruction indicator
    bool prefetched = false; //!< inserted by a prefetcher, not yet demanded
};

/** What an insertion displaced (for writebacks). */
struct Eviction
{
    bool valid = false;
    Addr lineAddr = 0;
    bool dirty = false;
    bool isInstr = false;
};

/** Set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Demand or prefetch lookup.  Updates replacement state and stats.
     * @return true on hit.  Oracle-mode instruction accesses are
     * resolved against the oracle set instead of the arrays.
     */
    bool access(const MemAccess &acc);

    /** Probe without any state change (writeback merges, tests). */
    bool contains(Addr line_addr) const;

    /**
     * Insert the line for @p acc, evicting if needed.
     * @param dirty insert in dirty state (writeback allocation)
     * @param critical instruction criticality mark (partition filter)
     * @return what was displaced
     */
    Eviction insert(const MemAccess &acc, bool dirty = false,
                    bool critical = false);

    /** Mark a resident line dirty (store hit / writeback hit). */
    void setDirty(Addr line_addr);

    /**
     * Record an in-flight miss for @p line completing at @p ready.
     * The entry occupies one MSHR until @p ready passes (pruned
     * lazily), so what the caller books here is what mshrsFull()
     * measures: with DRAM-fed residency (HierarchyParams::
     * dramFedLlcMshrs) the LLC banks book the channel's fill
     * completion instant, making MSHR pressure track real memory
     * backpressure.
     *
     * @param now the caller's clock when it is booking; audit mode
     *        checks the booked completion never lies in the past
     *        (ready >= now), which every timing path guarantees and
     *        the PR-5 completesAt fix restored for backfills.  The
     *        default 0 keeps clockless callers (tests, warm state
     *        seeding) working — the check degenerates to ready >= 0.
     */
    void addPending(Addr line_addr, Cycle ready, Cycle now = 0);

    /**
     * Completion time of an in-flight fill of @p line, or 0 when none.
     * Entries whose time passed are pruned.
     */
    Cycle pendingReady(Addr line_addr, Cycle now);

    /** True when all MSHRs are busy at @p now. */
    bool mshrsFull(Cycle now);

    // ---- bank contention model (bankServiceCycles > 0) ---------------
    /** The contention model is active on this cache. */
    bool contentionEnabled() const { return params.bankServiceCycles > 0; }
    /**
     * Occupy a tag-array slot for one probe arriving at @p now.
     * @return cycles queued behind earlier occupants (0 when a slot is
     * free or the model is off).
     */
    Cycle occupyTagPort(Cycle now);
    /**
     * Occupy a data-array slot (hit read / fill write) starting at
     * @p at on behalf of a transaction issued at @p issued (the
     * backfill ordering clock).  Callers book bandwidth in issue
     * order — @p at trails @p issued by at most a tag-grant wait;
     * booking at a far-future completion instant would turn the
     * scalar busy horizon into a phantom busy window.
     */
    Cycle occupyDataPort(Cycle at, Cycle issued);
    /** Record @p penalty cycles of MSHR-full stall against this bank. */
    void noteMshrStall(Cycle penalty) { stat.mshrStallCycles += penalty; }

    /** Attach the Garibaldi module (LLC only). */
    void setCompanion(LlcCompanion *companion);

    /** Extra cycles accumulated by QBS queries since last drain. */
    Cycle drainQbsCycles();

    /** Oracle-mode: does this cache filter instruction insertions? */
    bool oracleFiltersInstr() const { return params.instrOracle; }

    std::uint32_t numSets() const { return nSets; }
    std::uint32_t assoc() const { return params.assoc; }
    Cycle latency() const { return params.latency; }
    const CacheParams &config() const { return params; }
    const CacheStats &stats() const { return stat; }
    ReplacementPolicy &policy() { return repl; }

    /** Line metadata at (set, way); for tests and monitors. */
    CacheLine lineAt(std::uint32_t set, std::uint32_t way) const;

    /** Set index of a line address. */
    std::uint32_t setOf(Addr line_addr) const;

  private:
    /** Validate @p p's geometry (fatal on error); @return its set count. */
    static std::uint32_t checkedSetCount(const CacheParams &p);

    /** Probe-tag bit marking a valid frame: line numbers are < 2^58, so
     *  a valid frame's probe tag is never 0, which encodes "invalid". */
    static constexpr Addr kValidTag = Addr{1} << 63;
    /** lineState bits; 0 is a clean, data, demand-filled line. */
    static constexpr std::uint8_t kDirty = 1;
    static constexpr std::uint8_t kInstr = 2;
    static constexpr std::uint8_t kPrefetched = 4;

    Cycle reserveSlot(std::vector<Cycle> &busy_until, Cycle at,
                      Cycle issued, std::uint64_t &queue_cycles);
    std::size_t frameIndex(std::uint32_t set, std::uint32_t way) const
    {
        return std::size_t{set} * params.assoc + way;
    }
    /** Way of @p tag in @p set, or assoc when absent (probe array). */
    std::uint32_t probeWay(std::uint32_t set, Addr tag) const;
    /**
     * Fused insert-path scan: one pass over the set's probe row finds
     * the resident way of @p tag (or assoc) and, in the same pass, the
     * lowest invalid way (or assoc) via @p first_invalid — the
     * residency check and the invalid-way victim scan share the scan.
     */
    std::uint32_t probeWayAndInvalid(std::uint32_t set, Addr tag,
                                     std::uint32_t &first_invalid) const;
    std::uint32_t pickVictim(std::uint32_t set, const MemAccess &acc,
                             bool instr_class,
                             std::uint32_t first_invalid);
    std::uint32_t pickPartitionVictim(std::uint32_t set, bool instr_class);

    CacheParams params;
    std::uint32_t nSets;
    // Members are constructed, and so allocate, in declaration order:
    // the construction-written MSHR book, then the zeroed frame arrays,
    // then the policy.  Constructing the policy first measured up to
    // 0.6 MB more peak RSS (fig11_sweep) and slower System setup
    // (spec8_lru) in the benchmark.
    PendingTable pending;
    /** I-oracle: instruction lines touched so far (1 = seen); built
     *  only when params.instrOracle is set. */
    std::unique_ptr<FlatLineMap<std::uint8_t>> oracleSeen;
    /**
     * SoA frame metadata, indexed by frameIndex().  probeTags holds the
     * line number | kValidTag, or 0 for an invalid frame: the per-access
     * tag scan and the invalid-way scan touch only this row (one or two
     * host cache lines per set).  lineState holds the dirty / instr /
     * prefetched bits, one byte per frame, read on hits and evictions.
     */
    ZeroedArray<Addr> probeTags;
    ZeroedArray<std::uint8_t> lineState;
    /** Per-frame LRU stamps; allocated only with way partitioning, the
     *  one victim path that reads them. */
    ZeroedArray<Tick> lastUse;
    ReplacementPolicy repl;
    CacheStats stat;
    LlcCompanion *companion = nullptr;
    Cycle qbsCycles = 0;
    Tick useTick = 0;
    /** Per-slot busy-until cycles; sized at construction (empty when
     *  the contention model is off) so the demand path never allocates. */
    std::vector<Cycle> tagBusyUntil;
    std::vector<Cycle> dataBusyUntil;
    /** Newest *issue time* seen by reserveSlot (not reservation-start
     *  time, which fills schedule in the future); requests issued more
     *  than kBackfillSlack behind it backfill past capacity. */
    Cycle lastArrival = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_CACHE_HH
