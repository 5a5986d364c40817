#include "mem/cache.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/host_prefetch.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

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
    s.addRate("hit_rate", "hits", {"accesses"});
    s.add("instr_accesses", static_cast<double>(instrAccesses));
    s.add("instr_hits", static_cast<double>(instrHits));
    s.add("instr_misses", static_cast<double>(instrMisses));
    s.addRate("instr_miss_rate", "instr_misses", {"instr_accesses"});
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

// Every frame array encodes an invalid frame as zero, so they are
// zeroed arrays: a frame's page is first written by a fill.
Cache::Cache(const CacheParams &params_, MshrBook book_)
    : params(params_), nSets(checkedSetCount(params_)), book(book_),
      pending(book_ == MshrBook::Table
                  ? std::make_unique<PendingTable>(params_.mshrs)
                  : nullptr),
      oracleSeen(params_.instrOracle
                     ? std::make_unique<FlatLineMap<std::uint8_t>>()
                     : nullptr),
      probeTags(makeZeroedArray<Addr>(std::size_t{nSets} * params_.assoc)),
      fillReady(book_ != MshrBook::Table
                    ? makeZeroedArray<Cycle>(std::size_t{nSets} *
                                             params_.assoc)
                    : ZeroedArray<Cycle>()),
      lastUse(params_.instrPartitionWays > 0
                  ? RecencyStamps(nSets, params_.assoc)
                  : RecencyStamps()),
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
    Addr word = probeTags[i];
    CacheLine l;
    l.valid = word != 0;
    l.tag = word & kLineMask;
    l.dirty = word & kDirty;
    l.isInstr = word & kInstr;
    l.prefetched = word & kPrefetched;
    return l;
}

std::uint32_t
Cache::probeWay(std::uint32_t set, Addr tag) const
{
    const Addr *base = &probeTags[frameIndex(set, 0)];
    Addr key = tag | kValidTag;
    for (std::uint32_t w = 0; w < params.assoc; ++w) {
        if ((base[w] & ~kStateBits) == key)
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
        if ((base[w] & ~kStateBits) == key)
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

void
Cache::prefetchSet(Addr line_addr) const
{
    std::uint32_t set = setOf(line_addr);
    prefetchHostLines(&probeTags[frameIndex(set, 0)],
                      params.assoc * sizeof(Addr));
    repl.prefetchSet(set);
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
        std::size_t i = frameIndex(set, way);
        lastFrame = i;
        if (!acc.isPrefetch) {
            ++stat.hits;
            if (acc.isInstr)
                ++stat.instrHits;
            Addr &word = probeTags[i];
            if (word & kPrefetched) {
                word &= ~kPrefetched;
                ++stat.prefetchUseful;
            }
            if (acc.isWrite)
                word |= kDirty;
            repl.onHit(set, way, acc);
            if (lastUse)
                lastUse.touch(set, way);
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
    for (std::uint32_t w = lo; w < hi; ++w)
        if (probeTags[frameIndex(set, w)] == 0)
            return w;
    return lastUse.oldest(set, lo, hi);
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
        Addr word = probeTags[frameIndex(set, way)];
        if (!(word & kInstr))
            break;
        ++stat.qbsQueries;
        qbsCycles += companion->queryCost();
        if (!companion->shouldProtect((word & kLineMask) << kLineShift))
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
        // a prefetch racing a demand fill): just merge status bits.  An
        // in-flight fill of the line stays booked.
        lastFrame = frameIndex(set, resident_way);
        if (dirty || acc.isWrite)
            probeTags[lastFrame] |= kDirty;
        return {};
    }

    // Partition admission: only critical instruction lines may claim
    // the instruction region (Emissary-style filter).
    bool instr_class = acc.isInstr && critical;
    if (params.instrPartitionWays > 0 && instr_class)
        ++stat.partitionInstrInserts;

    std::uint32_t way = pickVictim(set, acc, instr_class, first_invalid);
    std::size_t i = frameIndex(set, way);

    Eviction ev;
    if (Addr word = probeTags[i]) {
        ev.valid = true;
        ev.lineAddr = (word & kLineMask) << kLineShift;
        ev.dirty = word & kDirty;
        ev.isInstr = word & kInstr;
        ++stat.evictions;
        if (ev.isInstr)
            ++stat.instrEvictions;
        if (ev.dirty)
            ++stat.writebacksOut;
        repl.onEvict(set, way);
        if (companion)
            companion->observeEvict(ev.lineAddr, ev.isInstr);
    }

    // A fresh word has no kInFlight bit, so the frame's stale
    // fillReady is never read.
    probeTags[i] = tag | kValidTag | (dirty || acc.isWrite ? kDirty : 0) |
                   (acc.isInstr ? kInstr : 0) |
                   (acc.isPrefetch ? kPrefetched : 0);
    lastFrame = i;
    if (lastUse)
        lastUse.touch(set, way);
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
        probeTags[frameIndex(set, w)] |= kDirty;
}

std::size_t
Cache::residentFrame(Addr line_addr) const
{
    Addr tag = lineNumber(line_addr);
    if ((probeTags[lastFrame] & ~kStateBits) == (tag | kValidTag))
        return lastFrame;
    std::uint32_t set = setOf(line_addr);
    std::uint32_t way = probeWay(set, tag);
    return way < params.assoc ? frameIndex(set, way) : kNoFrame;
}

void
Cache::pruneInFlight(Cycle now)
{
    // The clock never goes backwards, so a miss complete by now is
    // complete for every later question too.
    inFlight.erase(std::remove_if(inFlight.begin(), inFlight.end(),
                                  [now](const InFlight &f) {
                                      return f.ready <= now;
                                  }),
                   inFlight.end());
}

void
Cache::addPending(Addr line_addr, Cycle ready, Cycle now)
{
    // A fill booked to complete before its own issue instant would make
    // mshrsFull()/pendingReady() lie about in-flight state, as DRAM
    // backfills did before Dram reported their booked completesAt.
    SIM_ASSERT(ready >= now, params.name, ": MSHR booking for line ",
               lineNumber(line_addr), " completes at ", ready,
               " which precedes the caller's clock ", now);
    Addr key = lineNumber(line_addr);
    if (book == MshrBook::Table) {
        pending->set(key, ready);
        return;
    }
    std::size_t i = residentFrame(line_addr);
    SIM_ASSERT(i != kNoFrame, params.name, ": MSHR booking for line ",
               key, " which is not resident");
    if (i != kNoFrame) {
        fillReady[i] = ready;
        probeTags[i] |= kInFlight;
    }
    if (book != MshrBook::FrameAndList)
        return;
    pruneInFlight(now);
    for (InFlight &f : inFlight) {
        if (f.line == key) {
            f.ready = ready;
            return;
        }
    }
    inFlight.push_back({key, ready});
}

Cycle
Cache::pendingReady(Addr line_addr, Cycle now)
{
    Addr key = lineNumber(line_addr);
    if (book == MshrBook::Table) {
        Cycle ready = pending->get(key);
        if (ready == 0) {
            // The compaction schedule is unobservable only if no
            // booking it dropped could still be in flight at a later
            // query's clock.
            SIM_ASSERT(pending->droppedReady(key) <= now, params.name,
                       ": compaction dropped line ", key,
                       " in flight until ", pending->droppedReady(key),
                       ", queried at ", now);
            return 0;
        }
        if (ready <= now) {
            pending->erase(key);
            return 0;
        }
        ++stat.mshrMerges;
        return ready;
    }
    std::size_t i = residentFrame(line_addr);
    if (i == kNoFrame || !(probeTags[i] & kInFlight))
        return 0;
    Cycle ready = fillReady[i];
    if (ready <= now) {
        probeTags[i] &= ~kInFlight;
        return 0;
    }
    ++stat.mshrMerges;
    return ready;
}

bool
Cache::mshrsFull(Cycle now)
{
    if (book == MshrBook::FrameAndList) {
        pruneInFlight(now);
        return inFlight.size() >= params.mshrs;
    }
    if (book != MshrBook::Table)
        panic(params.name, ": mshrsFull() asked of a cache that counts "
              "no in-flight misses");
    if (pending->size() < params.mshrs)
        return false;
    // Lazily prune completed fills before declaring pressure.
    pending->pruneExpired(now);
    return pending->size() >= params.mshrs;
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
