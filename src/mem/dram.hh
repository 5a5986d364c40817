/**
 * @file
 * DDR5 main-memory model: first-order device timing plus per-channel
 * bandwidth queueing (Table 1: 2-channel DDR5-6400, 102.4 GB/s
 * aggregate, 49 ns access latency, memory-controller queuing modeled).
 *
 * Each channel keeps one busy horizon: a transfer holds the wire for
 * @c serviceCycles from its grant.  Out-of-order arrivals are keyed on
 * a per-channel *arrival* high-water mark, exactly like the LLC bank
 * arrays (cache.hh): a genuine straggler — one issued more than
 * kBackfillSlack behind the newest arrival the channel has seen —
 * still books its transfer at the horizon (bandwidth is conserved),
 * but pays as queue delay only the backlog booked beyond the
 * high-water mark, not the gap back to its own issue time.  A
 * saturated channel's backlog is therefore never written off as free,
 * and same-cycle bursts always queue FCFS; only the skew-tolerance
 * window rides cheap.
 *
 * Three opt-in timing legs refine the flat device latency (all default
 * 0 = off, keeping every output byte-identical to the flat model):
 *
 *  - Row-buffer split (@c rowBits): each channel tracks its open row
 *    (open-page policy).  @c baseLatency is read as the worst-case
 *    precharge+activate+CAS (row-conflict) path; a row hit pays
 *    baseLatency/3 (CAS only) and a closed-row miss 2*baseLatency/3
 *    (activate+CAS), so hit < miss < conflict by construction.
 *  - Read↔write turnaround (@c turnaroundCycles): flipping a channel's
 *    bus direction delays the transfer's grant by the penalty relative
 *    to the channel's busy horizon; an idle gap absorbs it.
 *  - Refresh (@c refreshIntervalCycles / @c refreshPenaltyCycles):
 *    every tREFI the whole channel blocks for tRFC — no transfer may
 *    start inside the window — and the blast closes the open row.
 */

#ifndef GARIBALDI_MEM_DRAM_HH
#define GARIBALDI_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace garibaldi
{

/** DRAM configuration. */
struct DramParams
{
    std::uint32_t channels = 2;
    /**
     * Device access latency in core cycles (49 ns @ 3 GHz).  With the
     * row-buffer split on (rowBits > 0) this is the row-conflict
     * (precharge+activate+CAS) path; hits and closed-row misses pay
     * one and two thirds of it respectively.
     */
    Cycle baseLatency = 147;
    /** Channel occupancy per 64 B transfer (51.2 GB/s/ch @ 3 GHz). */
    Cycle serviceCycles = 4;
    /**
     * Row-buffer geometry: line-address bits sharing one DRAM row, so
     * lines-per-row = 2^rowBits (7 = 8 KB rows of 64 B lines).  0 (the
     * default) disables the open-row split entirely: every read pays
     * the flat baseLatency and no row state is kept.
     */
    std::uint32_t rowBits = 0;
    /**
     * Extra grant delay when a channel's bus direction flips between
     * reads and writes (tWTR/tRTW-flavored).  0 = off.
     */
    Cycle turnaroundCycles = 0;
    /** Cycles between refresh windows (tREFI); 0 = no refresh. */
    Cycle refreshIntervalCycles = 0;
    /** Cycles a channel blocks per refresh window (tRFC). */
    Cycle refreshPenaltyCycles = 0;

    /** Row-buffer split active. */
    bool rowModelOn() const { return rowBits > 0; }
    /** Any timing leg beyond the flat latency + FCFS queue active. */
    bool
    timingEnabled() const
    {
        return rowModelOn() || turnaroundOn() || refreshOn();
    }
    /** Turnaround penalty active. */
    bool turnaroundOn() const { return turnaroundCycles > 0; }
    /** Refresh blocking active (needs both interval and penalty). */
    bool
    refreshOn() const
    {
        return refreshIntervalCycles > 0 && refreshPenaltyCycles > 0;
    }

    /** CAS-only leg of the split device latency. */
    Cycle rowHitLatency() const { return baseLatency / 3; }
    /** Activate+CAS leg (row closed, e.g. after refresh). */
    Cycle rowMissLatency() const { return (2 * baseLatency) / 3; }
    /** Precharge+activate+CAS leg (a different row was open). */
    Cycle rowConflictLatency() const { return baseLatency; }
};

/** Outcome of one DRAM transfer request. */
struct DramAccess
{
    /** Queue + device latency for reads; 0 for posted writes. */
    Cycle latency = 0;
    /**
     * Instant the transfer completes: wire released for writes, data
     * available for reads — never earlier than the booked transfer
     * end, even on the backfill path, so MSHR books keyed on this see
     * the real channel backpressure the busy horizon committed to.
     */
    Cycle completesAt = 0;
    /** Served via the out-of-order backfill path. */
    bool backfilled = false;

    // ---- leg attribution (tracing; always filled, costs one store
    // each, and changes no timing) -------------------------------------
    /** Queue-delay share of latency (requester-visible wait). */
    Cycle queue = 0;
    /** Device-leg share (row-split aware; baseLatency when flat). */
    Cycle device = 0;
    /** Dram::RowLeg outcome; -1 when the row model is off. */
    std::int8_t rowLeg = -1;
    /** The grant crossed a read<->write bus turnaround. */
    bool turned = false;
    /** The grant was pushed past a refresh (tRFC) window. */
    bool refreshStalled = false;
};

/** Bandwidth-limited DRAM with per-channel FCFS queueing. */
class Dram
{
  public:
    /** Row-buffer outcome legs, in strictly increasing latency order. */
    enum RowLeg { kRowHit = 0, kRowMiss = 1, kRowConflict = 2 };

    explicit Dram(const DramParams &params);

    /**
     * Issue a line transfer and return its timing (see DramAccess).
     * Writes are posted: bandwidth is consumed and queue delay counted,
     * but the returned latency is 0 so no core stalls on them.
     */
    DramAccess request(Addr line_addr, bool is_write, Cycle now);

    /**
     * Channel servicing @p line_addr: hashed so structured strides
     * spread, reduced by mask for power-of-two channel counts (the
     * exact historical `% channels` mapping) and by fast range
     * otherwise (no division, no modulo bias).
     */
    std::uint32_t channelOf(Addr line_addr) const;

    /** Export statistics. */
    StatSet stats() const;

    std::uint64_t reads() const { return nReads; }
    std::uint64_t writes() const { return nWrites; }

    /**
     * Device-leg latency histogram of one row leg.  Queue delay is
     * deliberately excluded (it is reported orthogonally through
     * avg_queue_delay): refresh stalls concentrate on the miss leg —
     * the first access granted after each blast finds its row
     * precharged — so folding queue into the legs would let the miss
     * leg's mean overtake the conflict leg's and destroy the
     * structural hit < miss < conflict ordering.
     */
    const Histogram &rowLegLatency(RowLeg leg) const
    {
        return legLatency[leg];
    }

  private:
    /** First cycle at or after @p t outside every refresh window. */
    Cycle afterRefresh(Cycle t) const;

    DramParams params;
    /** Per-channel busy-until: the end of the last booked transfer. */
    std::vector<Cycle> busyUntil;
    /** Per-channel newest arrival seen (the backfill ordering key). */
    std::vector<Cycle> lastArrival;
    /** Per-channel open row (kNoOpenRow = precharged). */
    std::vector<std::uint64_t> openRow;
    /** Per-channel last bus direction (-1 none, 0 read, 1 write). */
    std::vector<std::int8_t> busDir;
    /** Per-channel newest refresh epoch observed (closes the row). */
    std::vector<Cycle> refreshEpoch;
    std::uint64_t nReads = 0;
    std::uint64_t nWrites = 0;
    std::uint64_t queuedCycles = 0;
    std::uint64_t nBackfills = 0;
    std::uint64_t backfillQueuedCycles = 0;
    /** Row-leg outcome counts over ALL accesses (reads + writes). */
    std::uint64_t rowCount[3] = {0, 0, 0};
    /** Reads per leg and their summed device-leg latency. */
    std::uint64_t legReads[3] = {0, 0, 0};
    std::uint64_t legReadCycles[3] = {0, 0, 0};
    /** Summed full (queue + device) latency over all reads. */
    std::uint64_t readLatCycles = 0;
    std::uint64_t nTurnarounds = 0;
    std::uint64_t turnaroundStallCycles = 0;
    std::uint64_t nRefreshBlocked = 0;
    std::uint64_t refreshStallCycles = 0;
    Histogram legLatency[3] = {{16, 32}, {16, 32}, {16, 32}};
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_DRAM_HH
