/**
 * @file
 * Transaction tracer: sampled per-core ring buffers of finished
 * Transactions plus a shared ring of module decision markers
 * (Garibaldi protection grants/denials and pair-prefetch triggers),
 * exported as Chrome trace-event / Perfetto-compatible JSON and a
 * compact CSV, and feeding per-request-class latency-leg histograms.
 *
 * Determinism contract: nothing here reads a wall clock or allocates
 * on the capture path.  Records are keyed by (issue cycle, core,
 * per-core capture sequence) and the export merges the rings in that
 * canonical order, so traces are byte-identical for any --jobs value
 * (each sweep job owns its own Tracer) and across reruns.
 */

#ifndef GARIBALDI_OBS_TRACE_HH
#define GARIBALDI_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/transaction.hh"
#include "obs/obs_config.hh"

namespace garibaldi
{

/** One sampled transaction, flattened for ring storage. */
struct TraceRecord
{
    Cycle issued = 0;
    std::uint64_t seq = 0; //!< per-core capture sequence (merge key)
    Addr lineAddr = 0;
    Cycle l1 = 0, l2 = 0, llc = 0, queue = 0, dram = 0;
    Cycle dramQueue = 0, coherence = 0, mshr = 0;
    std::uint32_t llcBank = 0;
    CoreId core = 0;
    std::uint8_t level = 0; //!< HitLevel
    std::int8_t dramRowLeg = -1;
    bool isInstr = false, isWrite = false, isPrefetch = false;
    bool llcAccessed = false, llcHit = false;
    bool dramTurned = false, dramStalledByRefresh = false;

    Cycle total() const
    {
        return l1 + l2 + llc + queue + dram + coherence + mshr;
    }
};

/** Module decision markers interleaved with the transaction stream. */
enum class MarkerKind : std::uint8_t
{
    ProtectGrant = 0, //!< Garibaldi QBS protected an instruction victim
    ProtectDeny = 1,  //!< ... or declined to
    PairPrefetch = 2, //!< pairwise data prefetch burst issued
    NumKinds = 3,
};

/** One sampled marker. */
struct MarkerRecord
{
    Cycle at = 0;
    std::uint64_t seq = 0; //!< global capture sequence (merge key)
    Addr lineAddr = 0;
    std::uint64_t value = 0; //!< kind-specific payload (cost / count)
    CoreId core = 0;
    std::uint8_t kind = 0;
};

/** Sampled transaction + marker capture with deterministic export. */
class Tracer
{
  public:
    /** Request classes the latency histograms are split by. */
    enum ReqClass
    {
        kDemandData = 0,
        kDemandInstr = 1,
        kPrefetchData = 2,
        kPrefetchInstr = 3,
        kNumClasses = 4,
    };
    /** Latency legs histogrammed per class. */
    enum Leg
    {
        kLegL1 = 0,
        kLegL2,
        kLegLlc,
        kLegQueue,
        kLegDram,
        kLegTotal,
        kNumLegs,
    };

    /** @param cfg validated config with tracingOn() */
    Tracer(const ObsConfig &cfg, std::uint32_t num_cores);

    /**
     * Gate capture on the measurement window: the simulator leaves
     * this false through warmup so rings and histograms hold detailed-
     * window events only.
     */
    void setMeasuring(bool on) { measuring_ = on; }

    /** Hot-path hook: count every finished transaction, keep 1-in-N. */
    void
    onTransaction(const Transaction &txn)
    {
        if (!measuring_)
            return;
        std::uint64_t n = seen[txn.req.core]++;
        if (n % sampleN != 0)
            return;
        capture(txn);
    }

    /** Module decision marker; sampled 1-in-N per kind. */
    void onMarker(MarkerKind kind, CoreId core, Cycle at, Addr line_addr,
                  std::uint64_t value);

    /** All retained records merged in canonical order. */
    std::vector<TraceRecord> mergedRecords() const;
    /** All retained markers in capture order. */
    std::vector<MarkerRecord> retainedMarkers() const;

    /** Chrome trace-event JSON document (Perfetto-compatible). */
    std::string chromeJson() const;
    /** Compact CSV of the merged records (header + one row each). */
    std::string csv() const;

    /** Capture counters + per-class latency-leg percentiles. */
    StatSet stats() const;

    std::uint64_t sampledCount() const { return nCaptured; }
    std::uint64_t droppedCount() const;

  private:
    struct Ring
    {
        std::vector<TraceRecord> buf; //!< preallocated to capacity
        std::uint64_t count = 0;      //!< lifetime captures (head = count % cap)
    };

    void capture(const Transaction &txn);

    std::uint64_t sampleN;
    std::uint64_t ringCap;
    bool measuring_ = false;
    std::vector<std::uint64_t> seen; //!< per-core transaction counter
    std::vector<Ring> rings; //!< per-core record rings
    std::vector<MarkerRecord> markerRing; //!< shared marker ring
    std::uint64_t markerCount = 0;
    std::uint64_t markerSeen[3] = {0, 0, 0}; //!< per-kind 1-in-N gates
    std::uint64_t nCaptured = 0;
    /** Flattened [class][leg] latency histograms over the samples. */
    std::vector<Histogram> legHist;
    std::uint64_t classCount[kNumClasses] = {0, 0, 0, 0};

    Histogram &
    hist(int cls, int leg)
    {
        return legHist[static_cast<std::size_t>(cls) * kNumLegs + leg];
    }
    const Histogram &
    hist(int cls, int leg) const
    {
        return legHist[static_cast<std::size_t>(cls) * kNumLegs + leg];
    }
};

} // namespace garibaldi

#endif // GARIBALDI_OBS_TRACE_HH
