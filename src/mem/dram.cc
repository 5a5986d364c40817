#include "mem/dram.hh"

#include <algorithm>
#include <limits>

#include "common/audit.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

namespace
{
/** openRow sentinel: all banks precharged (row ids are 58-bit max). */
constexpr std::uint64_t kNoOpenRow =
    std::numeric_limits<std::uint64_t>::max();
} // namespace

Dram::Dram(const DramParams &params_)
    : params(params_),
      busyUntil(params_.channels, 0),
      lastArrival(params_.channels, 0),
      openRow(params_.channels, kNoOpenRow),
      busDir(params_.channels, -1),
      refreshEpoch(params_.channels, 0)
{
    if (params.channels == 0)
        fatal("DRAM needs at least one channel");
    if (params.rowModelOn() && params.baseLatency < 3)
        fatal("DRAM row-buffer split needs baseLatency >= 3 (the "
              "hit/miss/conflict thirds collapse below that)");
    if (params.refreshPenaltyCycles > 0 &&
        params.refreshIntervalCycles == 0)
        fatal("DRAM refreshPenaltyCycles > 0 needs a non-zero "
              "refreshIntervalCycles (tREFI)");
    if (params.refreshOn() &&
        params.refreshPenaltyCycles >= params.refreshIntervalCycles)
        fatal("DRAM refresh penalty (tRFC) must be smaller than the "
              "refresh interval (tREFI); the channel would never "
              "unblock");
}

std::uint32_t
Dram::channelOf(Addr line_addr) const
{
    std::uint64_t h = mix64(line_addr);
    if (isPowerOf2(params.channels))
        return static_cast<std::uint32_t>(h) & (params.channels - 1);
    return fastRange(h, params.channels);
}

Cycle
Dram::afterRefresh(Cycle t) const
{
    // Windows are [k*tREFI, k*tREFI + tRFC) for k >= 1; tRFC < tREFI
    // (constructor-checked), so at most the window containing t moves
    // the grant.
    Cycle k = t / params.refreshIntervalCycles;
    if (k == 0)
        return t;
    Cycle window = k * params.refreshIntervalCycles;
    if (t < window + params.refreshPenaltyCycles)
        return window + params.refreshPenaltyCycles;
    return t;
}

DramAccess
Dram::request(Addr line_addr, bool is_write, Cycle now)
{
    std::uint32_t ch = channelOf(line_addr);
    Cycle &busy = busyUntil[ch];

    // Bus-direction turnaround: the penalty applies from the channel's
    // busy horizon, so an idle gap longer than the penalty absorbs it
    // (the bus turned around while nothing was queued).
    bool flip = params.turnaroundOn() && busDir[ch] >= 0 &&
                (busDir[ch] == 1) != is_write;
    busDir[ch] = is_write ? 1 : 0;

    // Requests can arrive slightly out of time order (cores are
    // interleaved with bounded skew).  The backfill test is keyed on
    // the channel's *arrival* high-water mark, NOT on its busy horizon:
    // a same-cycle burst or an in-order backlog always queues FCFS (a
    // saturated channel's backlog is never written off as free), and
    // only a genuine straggler — issued more than kBackfillSlack behind
    // the newest arrival seen — is charged from that newest arrival
    // instead of its own issue time: it pays the backlog committed
    // beyond the high-water mark, and reservations booked after its
    // arrival do not read as its own queue.  Bandwidth is conserved
    // either way: the transfer still takes serviceCycles of wire time.
    bool backfill = now + kBackfillSlack < lastArrival[ch];
    Cycle charged_from = now;
    if (backfill) {
        charged_from = lastArrival[ch];
        // Every in-order grant books the horizon at least serviceCycles
        // past its own arrival, so the horizon never trails the mark:
        // the straggler's grant, queue and stall books below all start
        // at or beyond it.
        SIM_ASSERT(busy >= charged_from + params.serviceCycles,
                   "dram: channel ", ch, " horizon ", busy,
                   " trails its arrival high-water mark ", charged_from);
    } else {
        lastArrival[ch] = std::max(lastArrival[ch], now);
    }
    Cycle grant = std::max(now, busy); // instant the transfer wins the wire
    if (flip) {
        Cycle turned = std::max(now, busy + params.turnaroundCycles);
        ++nTurnarounds;
        turnaroundStallCycles += turned - grant;
        grant = turned;
    }
    bool refresh_push = false; // the grant moved past a tRFC window
    if (params.refreshOn()) {
        Cycle aligned = afterRefresh(grant);
        if (aligned > grant) {
            ++nRefreshBlocked;
            refreshStallCycles += aligned - grant;
            grant = aligned;
            refresh_push = true;
        }
    }
    Cycle queue = grant - charged_from;
    if (backfill) {
        ++nBackfills;
        backfillQueuedCycles += queue;
    }
    busy = grant + params.serviceCycles;
    queuedCycles += queue;
    // Both stall books are components of the queue delay a requester
    // observed, so their sums must stay subsets of queued_cycles or the
    // avg_queue_delay identity silently breaks.
    audit::checkStallSubset("dram", turnaroundStallCycles,
                            refreshStallCycles, queuedCycles);

    // Device-latency leg from the channel's open-row state.  Row state
    // advances in arrival order (like every other book here), but the
    // refresh epoch is keyed on the *grant* instant: an access whose
    // grant was pushed past a tREFI boundary finds the blast already
    // precharged its row, so the first access granted after each
    // refresh is a row miss, never a hit.
    Cycle device = params.baseLatency;
    int leg = -1;
    if (params.rowModelOn()) {
        if (params.refreshOn()) {
            Cycle epoch = grant / params.refreshIntervalCycles;
            if (epoch > refreshEpoch[ch]) {
                refreshEpoch[ch] = epoch;
                openRow[ch] = kNoOpenRow;
            }
        }
        std::uint64_t row = lineNumber(line_addr) >> params.rowBits;
        if (openRow[ch] == row) {
            leg = kRowHit;
            device = params.rowHitLatency();
        } else if (openRow[ch] == kNoOpenRow) {
            leg = kRowMiss;
            device = params.rowMissLatency();
        } else {
            leg = kRowConflict;
            device = params.rowConflictLatency();
        }
        ++rowCount[leg];
        openRow[ch] = row; // open-page policy: the row stays open
    }

    // The transfer end just booked — the instant the wire is really
    // released.  On the backfill path this can sit far beyond
    // now + queue + serviceCycles (queue only counts the backlog past
    // the high-water mark), and MSHR books keyed on completesAt must
    // see the booked time, not the shorter request-path sum.
    Cycle wire_end = busy;

    DramAccess out;
    out.backfilled = backfill;
    out.queue = queue;
    out.device = device;
    out.rowLeg = static_cast<std::int8_t>(leg);
    out.turned = flip;
    out.refreshStalled = refresh_push;
    if (is_write) {
        ++nWrites;
        out.latency = 0; // posted: bandwidth consumed, no core stall
        out.completesAt = wire_end;
        return out;
    }
    ++nReads;
    out.latency = queue + device;
    out.completesAt = std::max(now + out.latency, wire_end);
    readLatCycles += out.latency;
    if (leg >= 0) {
        // Per-leg books take the device leg only — queue delay is
        // reported orthogonally (total = queue + device).  Refresh
        // stalls concentrate on the miss leg (the first access granted
        // after each blast is a miss), so folding queue in would let
        // the miss mean overtake the conflict mean and invert the
        // structural hit < miss < conflict ordering.
        ++legReads[leg];
        legReadCycles[leg] += device;
        legLatency[leg].add(device);
    }
    return out;
}

StatSet
Dram::stats() const
{
    StatSet s;
    s.add("reads", static_cast<double>(nReads));
    s.add("writes", static_cast<double>(nWrites));
    s.add("queued_cycles", static_cast<double>(queuedCycles));
    s.add("backfills", static_cast<double>(nBackfills));
    s.add("backfill_queued_cycles",
          static_cast<double>(backfillQueuedCycles));
    // Every access (including zero-delay backfills) queues, so the
    // mean delay is queued_cycles over reads + writes.
    s.addRate("avg_queue_delay", "queued_cycles", {"reads", "writes"});
    // Timing-leg stats export only when their model is on, so flat-
    // latency runs keep the historical stat surface byte-for-byte
    // (the PR-3 contentionModeled discipline).
    if (params.rowModelOn()) {
        double hits = static_cast<double>(rowCount[kRowHit]);
        double misses = static_cast<double>(rowCount[kRowMiss]);
        double conflicts = static_cast<double>(rowCount[kRowConflict]);
        double accesses = hits + misses + conflicts;
        s.add("row_hits", hits);
        s.add("row_misses", misses);
        s.add("row_conflicts", conflicts);
        s.add("row_accesses", accesses);
        s.addRate("row_hit_rate", "row_hits", {"row_accesses"});
        static const char *const kLegName[3] = {"hit", "miss",
                                                "conflict"};
        for (int leg = 0; leg < 3; ++leg) {
            std::string p = kLegName[leg];
            s.add("row_" + p + "_reads",
                  static_cast<double>(legReads[leg]));
            s.add("row_" + p + "_lat_cycles",
                  static_cast<double>(legReadCycles[leg]));
            // Device-leg latency per leg (queue excluded; see
            // rowLegLatency).
            s.addRate("avg_row_" + p + "_latency",
                      "row_" + p + "_lat_cycles", {"row_" + p + "_reads"});
            // Percentile landmarks of the same distribution: gauges,
            // since percentiles of a cumulative histogram cannot be
            // differenced across snapshots.
            QuantileSummary q = legLatency[leg].quantiles();
            s.addGauge("row_" + p + "_lat_p50",
                       static_cast<double>(q.p50));
            s.addGauge("row_" + p + "_lat_p95",
                       static_cast<double>(q.p95));
            s.addGauge("row_" + p + "_lat_p99",
                       static_cast<double>(q.p99));
        }
    }
    if (params.timingEnabled()) {
        // Full read latency (queue + device): the end-to-end view the
        // per-leg device books deliberately exclude queue from.
        s.add("read_lat_cycles", static_cast<double>(readLatCycles));
        s.addRate("avg_read_latency", "read_lat_cycles", {"reads"});
    }
    if (params.turnaroundOn()) {
        s.add("turnarounds", static_cast<double>(nTurnarounds));
        s.add("turnaround_cycles",
              static_cast<double>(turnaroundStallCycles));
    }
    if (params.refreshOn()) {
        s.add("refresh_blocked", static_cast<double>(nRefreshBlocked));
        s.add("refresh_stall_cycles",
              static_cast<double>(refreshStallCycles));
    }
    return s;
}

} // namespace garibaldi
