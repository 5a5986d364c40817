#include "mem/cache.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/stat_kind.hh"

namespace garibaldi
{

SIM_STATS(CacheStats,
    SIM_STAT("accesses", counter),
    SIM_STAT("hits", counter),
    SIM_STAT("misses", counter),
    SIM_STAT("hit_rate", rate("hits", "accesses")),
    SIM_STAT("instr_accesses", counter),
    SIM_STAT("instr_hits", counter),
    SIM_STAT("instr_misses", counter),
    SIM_STAT("instr_miss_rate", rate("instr_misses", "instr_accesses")),
    SIM_STAT("writebacks_out", counter),
    SIM_STAT("evictions", counter),
    SIM_STAT("instr_evictions", counter),
    SIM_STAT("prefetch_inserts", counter),
    SIM_STAT("prefetch_useful", counter),
    SIM_STAT("mshr_merges", counter),
    SIM_STAT("qbs_queries", counter),
    SIM_STAT("qbs_protections", counter),
    SIM_STAT_GATED("bank_reservations", counter, "contentionModeled"),
    SIM_STAT_GATED("bank_backfills", counter, "contentionModeled"),
    SIM_STAT_GATED("queued_accesses", counter, "contentionModeled"),
    SIM_STAT_GATED("tag_queue_cycles", counter, "contentionModeled"),
    SIM_STAT_GATED("data_queue_cycles", counter, "contentionModeled"),
    SIM_STAT_GATED("queue_cycles", counter, "contentionModeled"),
    SIM_STAT_GATED("mshr_stall_cycles", counter, "contentionModeled"));

void
CacheStats::accumulate(const CacheStats &other)
{
    accesses += other.accesses;
    hits += other.hits;
    misses += other.misses;
    instrAccesses += other.instrAccesses;
    instrHits += other.instrHits;
    instrMisses += other.instrMisses;
    writebacksOut += other.writebacksOut;
    evictions += other.evictions;
    instrEvictions += other.instrEvictions;
    prefetchInserts += other.prefetchInserts;
    prefetchUseful += other.prefetchUseful;
    mshrMerges += other.mshrMerges;
    qbsQueries += other.qbsQueries;
    qbsProtections += other.qbsProtections;
    partitionInstrInserts += other.partitionInstrInserts;
    bankReservations += other.bankReservations;
    bankBackfills += other.bankBackfills;
    queuedAccesses += other.queuedAccesses;
    tagQueueCycles += other.tagQueueCycles;
    dataQueueCycles += other.dataQueueCycles;
    mshrStallCycles += other.mshrStallCycles;
    contentionModeled = contentionModeled || other.contentionModeled;
}

StatSet
CacheStats::toStatSet() const
{
    StatSet s;
    s.add("accesses", static_cast<double>(accesses));
    s.add("hits", static_cast<double>(hits));
    s.add("misses", static_cast<double>(misses));
    s.add("hit_rate", hitRate());
    s.add("instr_accesses", static_cast<double>(instrAccesses));
    s.add("instr_hits", static_cast<double>(instrHits));
    s.add("instr_misses", static_cast<double>(instrMisses));
    s.add("instr_miss_rate", instrMissRate());
    s.add("writebacks_out", static_cast<double>(writebacksOut));
    s.add("evictions", static_cast<double>(evictions));
    s.add("instr_evictions", static_cast<double>(instrEvictions));
    s.add("prefetch_inserts", static_cast<double>(prefetchInserts));
    s.add("prefetch_useful", static_cast<double>(prefetchUseful));
    s.add("mshr_merges", static_cast<double>(mshrMerges));
    s.add("qbs_queries", static_cast<double>(qbsQueries));
    s.add("qbs_protections", static_cast<double>(qbsProtections));
    // Queue counters appear only when the contention model ran, so a
    // model-off run exports exactly the historical stat surface.
    if (contentionModeled) {
        s.add("bank_reservations", static_cast<double>(bankReservations));
        s.add("bank_backfills", static_cast<double>(bankBackfills));
        s.add("queued_accesses", static_cast<double>(queuedAccesses));
        s.add("tag_queue_cycles", static_cast<double>(tagQueueCycles));
        s.add("data_queue_cycles", static_cast<double>(dataQueueCycles));
        s.add("queue_cycles",
              static_cast<double>(tagQueueCycles + dataQueueCycles));
        s.add("mshr_stall_cycles", static_cast<double>(mshrStallCycles));
    }
    return s;
}

std::uint32_t
Cache::checkedSetCount(const CacheParams &p)
{
    if (p.sizeBytes == 0 || p.assoc == 0)
        fatal(p.name, ": size and associativity must be non-zero");
    std::uint64_t lines = p.sizeBytes / kLineBytes;
    if (lines % p.assoc != 0)
        fatal(p.name, ": lines (", lines, ") not divisible by assoc (",
              p.assoc, ")");
    auto sets = static_cast<std::uint32_t>(lines / p.assoc);
    checkPowerOf2(sets, (p.name + " set count").c_str());
    if (p.instrPartitionWays >= p.assoc)
        fatal(p.name, ": instruction partition (", p.instrPartitionWays,
              " ways) must leave data ways");
    return sets;
}

// All three frame arrays encode an invalid frame as zero, so they are
// zeroed arrays: a frame's page is first written by a fill.
Cache::Cache(const CacheParams &params_)
    : params(params_), nSets(checkedSetCount(params_)),
      pending(params_.mshrs),
      oracleSeen(params_.instrOracle
                     ? std::make_unique<FlatLineMap<std::uint8_t>>()
                     : nullptr),
      probeTags(makeZeroedArray<Addr>(std::size_t{nSets} * params_.assoc)),
      lineState(makeZeroedArray<std::uint8_t>(std::size_t{nSets} *
                                              params_.assoc)),
      lastUse(params_.instrPartitionWays > 0
                  ? makeZeroedArray<Tick>(std::size_t{nSets} * params_.assoc)
                  : ZeroedArray<Tick>()),
      repl(makePolicy(params_.policy, nSets, params_.assoc,
                      params_.policyParams))
{
    if (params.bankServiceCycles > 0) {
        if (params.bankPorts == 0)
            fatal(params.name, ": bankPorts must be non-zero when the "
                  "contention model is on");
        tagBusyUntil.assign(params.bankPorts, 0);
        dataBusyUntil.assign(params.bankPorts, 0);
        stat.contentionModeled = true;
    }
}

Cycle
Cache::reserveSlot(std::vector<Cycle> &busy_until, Cycle at,
                   Cycle issued, std::uint64_t &queue_cycles)
{
    // Earliest-free slot wins; ties break on the lowest index so the
    // model is deterministic for any access order the simulator's
    // global-time heap produces.
    std::size_t best = 0;
    for (std::size_t i = 1; i < busy_until.size(); ++i)
        if (busy_until[i] < busy_until[best])
            best = i;
    // Requests can be issued slightly out of time order (cores are
    // interleaved with bounded skew).  A genuine straggler — one
    // issued behind the newest issue time seen — slots into capacity
    // the array had back then instead of queueing behind reservations
    // made after it.  The test is against the issue-time high-water
    // mark, NOT against busy_until (a same-cycle burst must queue for
    // real; a saturated backlog is never written off as free) and NOT
    // against @p at (fills book slots at future completion times,
    // which would misread every later probe as a straggler).
    if (issued + kBackfillSlack < lastArrival) {
        ++stat.bankReservations;
        ++stat.bankBackfills;
        return 0;
    }
    lastArrival = std::max(lastArrival, issued);
    Cycle start = std::max(busy_until[best], at);
    Cycle delay = start - at;
    busy_until[best] = start + params.bankServiceCycles;
    ++stat.bankReservations;
    if (delay > 0) {
        ++stat.queuedAccesses;
        queue_cycles += delay;
        // A wait this long means the port model is saturated far past
        // anything the paper's configurations produce — almost always
        // a mis-set bankServiceCycles/bankPorts pair.  Surface it
        // without drowning the log (stderr only; never fires in sane
        // configurations, so diffable stdout is untouched).
        constexpr Cycle kPathologicalWait = 1'000'000;
        if (delay > kPathologicalWait)
            warn_every_n(1024, params.name, ": access queued ", delay,
                         " cycles at a bank port; check "
                         "bankServiceCycles/bankPorts");
    }
    return delay;
}

Cycle
Cache::occupyTagPort(Cycle now)
{
    if (!contentionEnabled())
        return 0;
    return reserveSlot(tagBusyUntil, now, now, stat.tagQueueCycles);
}

Cycle
Cache::occupyDataPort(Cycle at, Cycle issued)
{
    if (!contentionEnabled())
        return 0;
    return reserveSlot(dataBusyUntil, at, issued, stat.dataQueueCycles);
}

std::uint32_t
Cache::setOf(Addr line_addr) const
{
    Addr ln = lineNumber(line_addr);
    if (params.indexSkipBits) {
        // Splice the bank-select field out of the line number so one
        // bank's lines spread over all of its sets.
        Addr low_mask = (Addr{1} << params.indexSkipShift) - 1;
        ln = (ln & low_mask) |
             ((ln >> (params.indexSkipShift + params.indexSkipBits))
              << params.indexSkipShift);
    }
    return static_cast<std::uint32_t>(ln) & (nSets - 1);
}

CacheLine
Cache::lineAt(std::uint32_t set, std::uint32_t way) const
{
    std::size_t i = frameIndex(set, way);
    CacheLine l;
    l.valid = probeTags[i] != 0;
    l.tag = probeTags[i] & ~kValidTag;
    l.dirty = lineState[i] & kDirty;
    l.isInstr = lineState[i] & kInstr;
    l.prefetched = lineState[i] & kPrefetched;
    return l;
}

std::uint32_t
Cache::probeWay(std::uint32_t set, Addr tag) const
{
    const Addr *base = &probeTags[frameIndex(set, 0)];
    Addr key = tag | kValidTag;
    for (std::uint32_t w = 0; w < params.assoc; ++w) {
        if (base[w] == key)
            return w;
    }
    return params.assoc;
}

std::uint32_t
Cache::probeWayAndInvalid(std::uint32_t set, Addr tag,
                          std::uint32_t &first_invalid) const
{
    const Addr *base = &probeTags[frameIndex(set, 0)];
    Addr key = tag | kValidTag;
    first_invalid = params.assoc;
    for (std::uint32_t w = 0; w < params.assoc; ++w) {
        if (base[w] == key)
            return w;
        if (base[w] == 0 && first_invalid == params.assoc)
            first_invalid = w;
    }
    return params.assoc;
}

bool
Cache::contains(Addr line_addr) const
{
    Addr la = lineAlign(line_addr);
    return probeWay(setOf(la), lineNumber(la)) < params.assoc;
}

bool
Cache::access(const MemAccess &acc)
{
    Addr line_addr = acc.lineAddr();
    std::uint32_t set = setOf(line_addr);
    Addr tag = lineNumber(line_addr);

    // One tag scan serves both the residency question the policy's
    // training hook asks and the hit path itself.
    std::uint32_t way = probeWay(set, tag);
    bool resident = way < params.assoc;

    if (!acc.isPrefetch) {
        ++stat.accesses;
        if (acc.isInstr)
            ++stat.instrAccesses;
        repl.onAccess(set, acc, resident);
    }

    // Fig. 3(d) I-oracle: instructions always hit after first access and
    // occupy no capacity.
    if (params.instrOracle && acc.isInstr) {
        std::uint8_t &seen = oracleSeen->ref(tag);
        if (seen) {
            if (!acc.isPrefetch) {
                ++stat.hits;
                ++stat.instrHits;
            }
            return true;
        }
        seen = 1;
        if (!acc.isPrefetch) {
            ++stat.misses;
            ++stat.instrMisses;
        }
        return false;
    }

    if (resident) {
        if (!acc.isPrefetch) {
            ++stat.hits;
            if (acc.isInstr)
                ++stat.instrHits;
            std::size_t i = frameIndex(set, way);
            if (lineState[i] & kPrefetched) {
                lineState[i] &= ~kPrefetched;
                ++stat.prefetchUseful;
            }
            repl.onHit(set, way, acc);
            if (lastUse)
                lastUse[i] = ++useTick;
            if (acc.isWrite)
                lineState[i] |= kDirty;
        }
        return true;
    }

    if (!acc.isPrefetch) {
        ++stat.misses;
        if (acc.isInstr)
            ++stat.instrMisses;
    }
    return false;
}

std::uint32_t
Cache::pickPartitionVictim(std::uint32_t set, bool instr_class)
{
    // Way partitioning (Fig. 14(d)): ways [0, P) belong to instruction
    // lines, ways [P, assoc) to everything else.  Victims are chosen by
    // the cache's own LRU stamps within the region.
    std::uint32_t lo = instr_class ? 0 : params.instrPartitionWays;
    std::uint32_t hi = instr_class ? params.instrPartitionWays
                                   : params.assoc;
    std::uint32_t best = lo;
    Tick best_tick = ~Tick{0};
    for (std::uint32_t w = lo; w < hi; ++w) {
        std::size_t i = frameIndex(set, w);
        if (probeTags[i] == 0)
            return w;
        if (lastUse[i] < best_tick) {
            best_tick = lastUse[i];
            best = w;
        }
    }
    return best;
}

std::uint32_t
Cache::pickVictim(std::uint32_t set, const MemAccess &acc,
                  bool instr_class, std::uint32_t first_invalid)
{
    if (params.instrPartitionWays > 0)
        return pickPartitionVictim(set, instr_class);

    // Invalid way found by the caller's fused residency scan.
    if (first_invalid < params.assoc)
        return first_invalid;

    std::uint32_t way = repl.victim(set, acc);
    if (!companion)
        return way;

    // QBS-style selective instruction protection (Fig. 5(b)): query the
    // pair table when the nominated victim is an instruction line; a
    // protected victim is promoted and the policy re-queried, at most
    // maxProtectAttempts times per eviction.  (Partitioned caches never
    // get here, so the promotion has no LRU stamp to refresh.)
    unsigned attempts = 0;
    while (attempts < companion->maxProtectAttempts()) {
        std::size_t i = frameIndex(set, way);
        if (probeTags[i] == 0 || !(lineState[i] & kInstr))
            break;
        ++stat.qbsQueries;
        qbsCycles += companion->queryCost();
        if (!companion->shouldProtect((probeTags[i] & ~kValidTag)
                                      << kLineShift))
            break;
        ++stat.qbsProtections;
        repl.promote(set, way);
        ++attempts;
        way = repl.victim(set, acc);
    }
    return way;
}

Eviction
Cache::insert(const MemAccess &acc, bool dirty, bool critical)
{
    Addr line_addr = acc.lineAddr();

    if (params.instrOracle && acc.isInstr)
        return {}; // oracle instructions never occupy the arrays

    std::uint32_t set = setOf(line_addr);
    Addr tag = lineNumber(line_addr);

    // One fused scan answers both insert-path questions: is the line
    // already resident, and which way is free if not.
    std::uint32_t first_invalid;
    std::uint32_t resident_way = probeWayAndInvalid(set, tag,
                                                    first_invalid);
    if (resident_way < params.assoc) {
        // Already present (e.g. writeback into a still-resident line or
        // a prefetch racing a demand fill): just merge status bits.
        if (dirty || acc.isWrite)
            lineState[frameIndex(set, resident_way)] |= kDirty;
        return {};
    }

    // Partition admission: only critical instruction lines may claim
    // the instruction region when the Emissary-style filter is on.
    bool instr_class = acc.isInstr &&
        (!params.partitionCriticalOnly || critical);
    if (params.instrPartitionWays > 0 && instr_class)
        ++stat.partitionInstrInserts;

    std::uint32_t way = pickVictim(set, acc, instr_class, first_invalid);
    std::size_t i = frameIndex(set, way);

    Eviction ev;
    if (probeTags[i] != 0) {
        ev.valid = true;
        ev.lineAddr = (probeTags[i] & ~kValidTag) << kLineShift;
        ev.dirty = lineState[i] & kDirty;
        ev.isInstr = lineState[i] & kInstr;
        ++stat.evictions;
        if (ev.isInstr)
            ++stat.instrEvictions;
        if (ev.dirty)
            ++stat.writebacksOut;
        repl.onEvict(set, way);
        if (companion)
            companion->observeEvict(ev.lineAddr, ev.isInstr);
    }

    probeTags[i] = tag | kValidTag;
    lineState[i] = static_cast<std::uint8_t>(
        (dirty || acc.isWrite ? kDirty : 0) | (acc.isInstr ? kInstr : 0) |
        (acc.isPrefetch ? kPrefetched : 0));
    if (lastUse)
        lastUse[i] = ++useTick;
    repl.onInsert(set, way, acc);
    if (acc.isPrefetch)
        ++stat.prefetchInserts;
    if (companion)
        companion->observeInsert(line_addr, acc.isInstr, acc.isPrefetch);
    return ev;
}

void
Cache::setDirty(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    std::uint32_t set = setOf(line_addr);
    std::uint32_t w = probeWay(set, lineNumber(line_addr));
    if (w < params.assoc)
        lineState[frameIndex(set, w)] |= kDirty;
}

void
Cache::addPending(Addr line_addr, Cycle ready, Cycle now)
{
    // A fill booked to complete before its own issue instant would make
    // mshrsFull()/pendingReady() lie about in-flight state — the exact
    // class of bug the PR-5 backfill completesAt fix closed.
    SIM_ASSERT(ready >= now, params.name, ": MSHR booking for line ",
               lineNumber(line_addr), " completes at ", ready,
               " which precedes the caller's clock ", now);
    pending.set(lineNumber(line_addr), ready);
}

Cycle
Cache::pendingReady(Addr line_addr, Cycle now)
{
    Addr key = lineNumber(line_addr);
    Cycle ready = pending.get(key);
    if (ready == 0) {
        // The compaction schedule is unobservable only if no booking it
        // dropped could still be in flight at a later query's clock.
        SIM_ASSERT(pending.droppedReady(key) <= now, params.name,
                   ": compaction dropped line ", key, " in flight until ",
                   pending.droppedReady(key), ", queried at ", now);
        return 0;
    }
    if (ready <= now) {
        pending.erase(key);
        return 0;
    }
    ++stat.mshrMerges;
    return ready;
}

bool
Cache::mshrsFull(Cycle now)
{
    if (pending.size() < params.mshrs)
        return false;
    // Lazily prune completed fills before declaring pressure.
    pending.pruneExpired(now);
    return pending.size() >= params.mshrs;
}

void
Cache::setCompanion(LlcCompanion *companion_)
{
    companion = companion_;
}

Cycle
Cache::drainQbsCycles()
{
    Cycle c = qbsCycles;
    qbsCycles = 0;
    return c;
}

} // namespace garibaldi
