#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace garibaldi
{

namespace
{

const char *const kClassName[Tracer::kNumClasses] = {
    "data", "instr", "pf_data", "pf_instr"};
const char *const kLegName[Tracer::kNumLegs] = {
    "l1", "l2", "llc", "queue", "dram", "total"};
const char *const kMarkerName[3] = {"protect_grant", "protect_deny",
                                    "pair_prefetch"};
const char *const kRowLegName[3] = {"hit", "miss", "conflict"};

int
classOf(const TraceRecord &r)
{
    return (r.isPrefetch ? 2 : 0) + (r.isInstr ? 1 : 0);
}

std::string
hexLine(Addr a)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(a));
    return buf;
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

} // namespace

Tracer::Tracer(const ObsConfig &cfg, std::uint32_t num_cores)
    : sampleN(cfg.traceSample), ringCap(cfg.traceBufRecords),
      seen(num_cores, 0), rings(num_cores),
      // Legs are a few hundred cycles at most under the default DDR5
      // timings; 8-cycle buckets to 768 keep p99 resolution without
      // pushing the tail into overflow.
      legHist(static_cast<std::size_t>(kNumClasses) * kNumLegs,
              Histogram(8, 96))
{
    cfg.validate();
    if (!cfg.tracingOn())
        panic("Tracer built with tracing off");
    for (auto &ring : rings)
        ring.buf.resize(static_cast<std::size_t>(ringCap));
    // Markers share one ring sized like a core's record ring: decision
    // events are sampled at the same 1-in-N rate as transactions, so
    // comparable retention windows need comparable capacity.
    markerRing.resize(static_cast<std::size_t>(ringCap));
}

void
Tracer::capture(const Transaction &txn)
{
    Ring &ring = rings[txn.req.core];
    TraceRecord &r =
        ring.buf[static_cast<std::size_t>(ring.count % ringCap)];
    if (ring.count == ringCap) {
        warn_once("trace ring wrapped (", ringCap, " records/core); "
                  "oldest samples are overwritten — raise "
                  "--trace-buf or --trace-sample to keep the full "
                  "window");
    }
    r.issued = txn.issued;
    r.seq = ring.count++;
    r.lineAddr = txn.lineAddr;
    r.l1 = txn.l1Cycles;
    r.l2 = txn.l2Cycles;
    r.llc = txn.llcCycles;
    r.queue = txn.queueCycles;
    r.dram = txn.dramCycles;
    r.dramQueue = txn.dramQueueCycles;
    r.mshr = txn.mshrCycles;
    r.llcBank = txn.llcBank;
    r.core = txn.req.core;
    r.level = static_cast<std::uint8_t>(txn.level);
    r.dramRowLeg = txn.dramRowLeg;
    r.isInstr = txn.req.isInstr;
    r.isWrite = txn.req.isWrite;
    r.isPrefetch = txn.req.isPrefetch;
    r.llcAccessed = txn.llcAccessed;
    r.llcHit = txn.llcHit;
    r.dramTurned = txn.dramTurned;
    r.dramStalledByRefresh = txn.dramStalledByRefresh;
    ++nCaptured;

    int cls = classOf(r);
    ++classCount[cls];
    hist(cls, kLegL1).add(r.l1);
    hist(cls, kLegL2).add(r.l2);
    hist(cls, kLegLlc).add(r.llc);
    hist(cls, kLegQueue).add(r.queue);
    hist(cls, kLegDram).add(r.dram);
    hist(cls, kLegTotal).add(r.total());
}

void
Tracer::onMarker(MarkerKind kind, CoreId core, Cycle at, Addr line_addr,
                 std::uint64_t value)
{
    if (!measuring_)
        return;
    std::uint64_t n = markerSeen[static_cast<int>(kind)]++;
    if (n % sampleN != 0)
        return;
    MarkerRecord &m =
        markerRing[static_cast<std::size_t>(markerCount % ringCap)];
    m.at = at;
    m.seq = markerCount++;
    m.lineAddr = line_addr;
    m.value = value;
    m.core = core;
    m.kind = static_cast<std::uint8_t>(kind);
}

std::uint64_t
Tracer::droppedCount() const
{
    std::uint64_t dropped = 0;
    for (const Ring &ring : rings)
        if (ring.count > ringCap)
            dropped += ring.count - ringCap;
    return dropped;
}

std::vector<TraceRecord>
Tracer::mergedRecords() const
{
    std::vector<TraceRecord> out;
    for (const Ring &ring : rings) {
        std::uint64_t kept = std::min(ring.count, ringCap);
        for (std::uint64_t i = 0; i < kept; ++i)
            out.push_back(ring.buf[static_cast<std::size_t>(i)]);
    }
    // Canonical merge order: issue cycle, then core, then capture
    // sequence.  Every key is simulated state, so the merged stream is
    // identical across reruns and job counts.
    std::sort(out.begin(), out.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  if (a.issued != b.issued)
                      return a.issued < b.issued;
                  if (a.core != b.core)
                      return a.core < b.core;
                  return a.seq < b.seq;
              });
    return out;
}

std::vector<MarkerRecord>
Tracer::retainedMarkers() const
{
    std::vector<MarkerRecord> out;
    std::uint64_t kept = std::min(markerCount, ringCap);
    // When the ring wrapped, the retained window is the newest ringCap
    // entries; emit them in capture (seq) order starting at the oldest
    // surviving slot.
    std::uint64_t start = markerCount > ringCap ? markerCount % ringCap
                                                : 0;
    for (std::uint64_t i = 0; i < kept; ++i)
        out.push_back(markerRing[static_cast<std::size_t>(
            (start + i) % ringCap)]);
    return out;
}

std::string
Tracer::chromeJson() const
{
    // Built by direct string assembly: a 100k-record document through
    // the JsonValue tree would allocate per node for no benefit.  The
    // output is strict JSON (tests parse it back with JsonValue).
    std::string out;
    out.reserve(1 << 20);
    out += "{\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&out, &first]() {
        if (!first)
            out += ",\n";
        first = false;
    };

    for (std::size_t c = 0; c < rings.size(); ++c) {
        sep();
        out += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
        appendU64(out, c);
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"core";
        appendU64(out, c);
        out += "\"}}";
    }

    for (const TraceRecord &r : mergedRecords()) {
        sep();
        out += "{\"ph\":\"X\",\"pid\":0,\"tid\":";
        appendU64(out, r.core);
        out += ",\"ts\":";
        appendU64(out, r.issued);
        out += ",\"dur\":";
        appendU64(out, std::max<Cycle>(r.total(), 1));
        out += ",\"name\":\"";
        out += kClassName[classOf(r)];
        out += '.';
        out += hitLevelName(static_cast<HitLevel>(r.level));
        out += "\",\"args\":{\"line\":\"";
        out += hexLine(r.lineAddr);
        out += "\",\"write\":";
        out += r.isWrite ? "true" : "false";
        out += ",\"llc_hit\":";
        out += r.llcHit ? "true" : "false";
        out += ",\"llc_bank\":";
        appendU64(out, r.llcBank);
        out += ",\"l1\":";
        appendU64(out, r.l1);
        out += ",\"l2\":";
        appendU64(out, r.l2);
        out += ",\"llc\":";
        appendU64(out, r.llc);
        out += ",\"queue\":";
        appendU64(out, r.queue);
        out += ",\"dram\":";
        appendU64(out, r.dram);
        out += ",\"dram_queue\":";
        appendU64(out, r.dramQueue);
        out += ",\"mshr\":";
        appendU64(out, r.mshr);
        out += ",\"row_leg\":\"";
        out += r.dramRowLeg >= 0 ? kRowLegName[r.dramRowLeg] : "-";
        out += "\",\"turnaround\":";
        out += r.dramTurned ? "true" : "false";
        out += ",\"refresh_stalled\":";
        out += r.dramStalledByRefresh ? "true" : "false";
        out += "}}";
    }

    for (const MarkerRecord &m : retainedMarkers()) {
        sep();
        out += "{\"ph\":\"i\",\"pid\":0,\"tid\":";
        appendU64(out, m.core);
        out += ",\"ts\":";
        appendU64(out, m.at);
        out += ",\"s\":\"t\",\"name\":\"";
        out += kMarkerName[m.kind];
        out += "\",\"args\":{\"line\":\"";
        out += hexLine(m.lineAddr);
        out += "\",\"value\":";
        appendU64(out, m.value);
        out += "}}";
    }

    out += "\n]}\n";
    return out;
}

std::string
Tracer::csv() const
{
    std::string out;
    out.reserve(1 << 20);
    out += "issued,core,seq,line,class,level,write,llc_hit,llc_bank,"
           "l1,l2,llc,queue,dram,dram_queue,mshr,total,"
           "row_leg,turnaround,refresh_stalled\n";
    for (const TraceRecord &r : mergedRecords()) {
        appendU64(out, r.issued);
        out += ',';
        appendU64(out, r.core);
        out += ',';
        appendU64(out, r.seq);
        out += ',';
        out += hexLine(r.lineAddr);
        out += ',';
        out += kClassName[classOf(r)];
        out += ',';
        out += hitLevelName(static_cast<HitLevel>(r.level));
        out += ',';
        out += r.isWrite ? '1' : '0';
        out += ',';
        out += r.llcHit ? '1' : '0';
        out += ',';
        appendU64(out, r.llcBank);
        out += ',';
        appendU64(out, r.l1);
        out += ',';
        appendU64(out, r.l2);
        out += ',';
        appendU64(out, r.llc);
        out += ',';
        appendU64(out, r.queue);
        out += ',';
        appendU64(out, r.dram);
        out += ',';
        appendU64(out, r.dramQueue);
        out += ',';
        appendU64(out, r.mshr);
        out += ',';
        appendU64(out, r.total());
        out += ',';
        out += r.dramRowLeg >= 0 ? kRowLegName[r.dramRowLeg] : "-";
        out += ',';
        out += r.dramTurned ? '1' : '0';
        out += ',';
        out += r.dramStalledByRefresh ? '1' : '0';
        out += '\n';
    }
    return out;
}

StatSet
Tracer::stats() const
{
    StatSet s;
    std::uint64_t seen_total = 0;
    for (std::uint64_t n : seen)
        seen_total += n;
    s.addGauge("trace.sample_n", static_cast<double>(sampleN));
    s.add("trace.seen", static_cast<double>(seen_total));
    s.add("trace.captured", static_cast<double>(nCaptured));
    s.add("trace.dropped", static_cast<double>(droppedCount()));
    s.add("trace.markers_captured", static_cast<double>(markerCount));
    // Per-class latency-leg percentiles over the sampled records.
    // Classes with no samples are omitted (their percentiles would all
    // be zero and the surface stays proportional to actual traffic);
    // within a present class every leg exports, count included, so the
    // stat list is a deterministic function of the class mix.
    for (int cls = 0; cls < kNumClasses; ++cls) {
        if (classCount[cls] == 0)
            continue;
        std::string base = std::string("lat.") + kClassName[cls] + ".";
        s.add(base + "count", static_cast<double>(classCount[cls]));
        for (int leg = 0; leg < kNumLegs; ++leg) {
            QuantileSummary q = hist(cls, leg).quantiles();
            std::string p = base + kLegName[leg];
            s.addGauge(p + "_p50", static_cast<double>(q.p50));
            s.addGauge(p + "_p95", static_cast<double>(q.p95));
            s.addGauge(p + "_p99", static_cast<double>(q.p99));
        }
    }
    return s;
}

} // namespace garibaldi
