#include "sim/simulator.hh"

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "garibaldi/garibaldi.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "sim/metrics.hh"

namespace garibaldi
{

double
SimResult::ipcSum() const
{
    double s = 0;
    for (const auto &c : cores)
        s += c.ipc;
    return s;
}

double
SimResult::ipcHarmonicMean() const
{
    std::vector<double> ipcs;
    ipcs.reserve(cores.size());
    for (const auto &c : cores)
        ipcs.push_back(c.ipc);
    return harmonicMean(ipcs);
}

CpiStack
SimResult::totalCpi() const
{
    CpiStack total;
    for (const auto &c : cores)
        total.merge(c.cpi);
    return total;
}

Cycle
SimResult::ifetchStallCycles() const
{
    return totalCpi().ifetchCycles();
}

Simulator::Simulator(System &system)
    : sys(system)
{
}

std::uint64_t
Simulator::instructionsRetired() const
{
    std::uint64_t total = 0;
    for (CoreId c = 0; c < sys.numCores(); ++c)
        total += sys.core(c).stats().instructions;
    return total;
}

void
Simulator::telemetrySample(TelemetrySink &telemetry, Cycle now)
{
    StatSet gari;
    if (sys.garibaldi())
        gari = sys.garibaldi()->stats();
    telemetry.sample(now, sys.hierarchy().stats(), gari,
                     instructionsRetired());
}

void
Simulator::runWindow(std::uint64_t instructions_per_core,
                     TelemetrySink *telemetry)
{
    // Advance whichever core is earliest in simulated time, so accesses
    // from different cores interleave at the shared levels the way they
    // would on real hardware.  Ties break on core id => deterministic.
    using HeapEntry = std::pair<Cycle, CoreId>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>> heap;
    std::vector<std::uint64_t> remaining(sys.numCores(),
                                         instructions_per_core);
    for (CoreId c = 0; c < sys.numCores(); ++c)
        heap.emplace(sys.core(c).now(), c);

    // Ops are pulled from each core's stream a chunk at a time (one
    // fill() call per chunk instead of one next() per op).  Each
    // core's op sequence is exactly what per-op next() calls would
    // produce — streams are per-core, so interleaving fetches across
    // cores differently from execution order is invisible — and a
    // buffer never outlives the window: fetched ops never exceed the
    // window's per-core quota, and the loop drains remaining[] to zero.
    constexpr std::size_t kOpChunk = 64;
    std::vector<std::vector<MicroOp>> opBuf(sys.numCores());
    std::vector<std::size_t> opCursor(sys.numCores(), 0);
    std::vector<std::uint64_t> unfetched(sys.numCores(),
                                         instructions_per_core);
    for (CoreId c = 0; c < sys.numCores(); ++c)
        opBuf[c].reserve(kOpChunk);

    // The popped core runs until it passes the next-earliest core's
    // clock (plus a small hysteresis that amortizes heap traffic).
    // This keeps cross-core skew bounded by one instruction's stall,
    // which the DRAM bandwidth model needs for sane queueing.
    constexpr Cycle kHysteresis = 32;

    while (!heap.empty()) {
        auto [when, c] = heap.top();
        heap.pop();
        // The popped clock is a monotone non-decreasing lower bound on
        // global simulated time (every other core is at or beyond it),
        // which makes it the natural telemetry boundary: every event
        // counted before this point happened before `when` plus at most
        // the bounded cross-core skew.
        if (telemetry && when >= telemetry->dueAt())
            telemetrySample(*telemetry, when);
        CoreModel &core = sys.core(c);
        SynthWorkload &stream = sys.stream(c);
        Cycle horizon = (heap.empty() ? core.now() + 100000
                                      : heap.top().first) + kHysteresis;
        while (remaining[c] > 0 && core.now() <= horizon) {
            if (opCursor[c] == opBuf[c].size()) {
                std::size_t n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(kOpChunk, unfetched[c]));
                opBuf[c].resize(n);
                stream.fill(opBuf[c].data(), n);
                unfetched[c] -= n;
                opCursor[c] = 0;
            }
            core.step(opBuf[c][opCursor[c]++]);
            --remaining[c];
        }
        if (remaining[c] > 0)
            heap.emplace(core.now(), c);
    }
}

SimResult
Simulator::run(std::uint64_t warmup_per_core,
               std::uint64_t detailed_per_core)
{
    if (detailed_per_core == 0)
        fatal("detailed window must be non-zero");

    if (warmup_per_core > 0)
        runWindow(warmup_per_core);

    // Snapshot shared-structure stats so the detailed window reports
    // only its own events; cores have explicit reset support.
    StatSet mem_before = sys.hierarchy().stats();
    StatSet gari_before;
    if (sys.garibaldi())
        gari_before = sys.garibaldi()->stats();
    auto sum_tlb = [this]() {
        StatSet agg;
        for (CoreId c = 0; c < sys.numCores(); ++c) {
            StatSet per_core = sys.core(c).tlbs().stats();
            for (const auto &[name, value] : per_core.entries()) {
                double prev = agg.has(name) ? agg.get(name) : 0.0;
                agg.add(name, prev + value);
            }
        }
        return agg;
    };
    StatSet tlb_before = sum_tlb();
    for (CoreId c = 0; c < sys.numCores(); ++c)
        sys.core(c).resetStats();

    // Observability opens with the measurement window: the tracer is
    // deaf through warmup (records would never be reported anyway) and
    // the telemetry sink's first window starts at the earliest core
    // clock — the same instant the snapshots above were taken, so its
    // deltas are exact window deltas.
    ObsSubsystem *obs = sys.obs();
    TelemetrySink *telemetry = obs ? obs->telemetry() : nullptr;
    if (obs && obs->tracer())
        obs->tracer()->setMeasuring(true);
    if (telemetry) {
        Cycle start = sys.core(0).now();
        for (CoreId c = 1; c < sys.numCores(); ++c)
            start = std::min(start, sys.core(c).now());
        telemetry->begin(start, mem_before, gari_before, 0);
    }

    runWindow(detailed_per_core, telemetry);

    SimResult res;
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        const CoreStats &cs = sys.core(c).stats();
        CoreResult cr;
        cr.instructions = cs.instructions;
        cr.cycles = sys.core(c).windowCycles();
        cr.ipc = cs.ipc(cr.cycles);
        cr.cpi = cs.cpi;
        cr.branches = cs.branches;
        cr.mispredicts = cs.mispredicts;
        cr.loads = cs.loads;
        cr.stores = cs.stores;
        cr.ifetchLines = cs.ifetchLines;
        res.cores.push_back(cr);
    }

    // Counter stats subtract cleanly; derived rates do NOT (a
    // difference of ratios is not the ratio of differences), and
    // gauges (point-in-time readings) must not be differenced at all.
    // windowedStatDelta (sim/metrics.hh) applies each entry's rule —
    // shared with the telemetry sink's per-window records so the two
    // reports can never drift apart.
    res.mem = windowedStatDelta(sys.hierarchy().stats(), mem_before);
    if (sys.garibaldi()) {
        res.garibaldi =
            windowedStatDelta(sys.garibaldi()->stats(), gari_before);
    }
    res.tlb = windowedStatDelta(sum_tlb(), tlb_before);

    if (obs) {
        if (telemetry) {
            // Flush the final partial window at the latest core clock —
            // the instant the last event of the run could have landed.
            Cycle end = sys.core(0).now();
            for (CoreId c = 1; c < sys.numCores(); ++c)
                end = std::max(end, sys.core(c).now());
            StatSet gari_now;
            if (sys.garibaldi())
                gari_now = sys.garibaldi()->stats();
            telemetry->finish(end, sys.hierarchy().stats(), gari_now,
                              instructionsRetired());
        }
        if (obs->tracer())
            obs->tracer()->setMeasuring(false);
        obs->writeOutputs();
        res.obs = obs->stats();
    }
    return res;
}

} // namespace garibaldi
