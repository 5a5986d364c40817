/**
 * @file
 * Benchmark driver: runs ONE rep of one named workload through the
 * public simulation API (System, Simulator::run, ExperimentContext,
 * SweepRunner) and prints one JSON record on stdout.  benchmark/run.py
 * starts one process per rep, checks the records and turns them into
 * metrics; benchmark/README.md defines the workloads and metrics.
 *
 * Every rep records its phases (setup, simulate, stats, ...) as spans
 * kept in memory and printed with the record.  With --trace the rep
 * additionally wraps the Garibaldi module in a timing LlcCompanion
 * (one aggregate span per (job, hook)) and probes the workload streams
 * in isolation; the simulated results must not change.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "sweep/sweep_runner.hh"
#include "workloads/mix.hh"

using namespace garibaldi;

namespace
{

using Clock = std::chrono::steady_clock;

/** System constructions per job; setup time is their median. */
constexpr int kSetupReps = 5;

/**
 * Mix compositions are the seed-1 draws whatever --seed is; --seed
 * picks the instruction streams.  A per-seed draw would make host
 * time vary with which workloads were drawn, not with the simulator.
 */
constexpr std::uint64_t kMixSeed = 1;

std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

JsonValue
num(double v)
{
    return JsonValue::number(v);
}

/** Spans of one rep, kept in memory and printed with its record. */
class SpanLog
{
  public:
    SpanLog() : origin(Clock::now()) {}

    std::int64_t now() const { return nsBetween(origin, Clock::now()); }

    int
    open(const std::string &name, int parent,
         JsonValue args = JsonValue::object())
    {
        return add(name, parent, now(), -1, std::move(args));
    }

    void close(int id) { spans[static_cast<std::size_t>(id)].end = now(); }

    std::int64_t
    start(int id) const
    {
        return spans[static_cast<std::size_t>(id)].start;
    }

    int
    add(const std::string &name, int parent, std::int64_t start_ns,
        std::int64_t end_ns, JsonValue args = JsonValue::object())
    {
        spans.push_back({name, parent, start_ns, end_ns, std::move(args)});
        return static_cast<int>(spans.size()) - 1;
    }

    JsonValue
    toJson() const
    {
        JsonValue out = JsonValue::array();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            JsonValue j = JsonValue::object();
            j.set("id", num(static_cast<double>(i)));
            j.set("parent", num(s.parent));
            j.set("name", JsonValue::string(s.name));
            j.set("start_ns", num(static_cast<double>(s.start)));
            j.set("end_ns", num(static_cast<double>(s.end)));
            j.set("args", s.args);
            out.push(std::move(j));
        }
        return out;
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        std::int64_t start;
        std::int64_t end;
        JsonValue args;
    };

    Clock::time_point origin;
    std::vector<Span> spans;
};

/** Scoped span: opened on construction, closed on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log_, const std::string &name, int parent,
               JsonValue args = JsonValue::object())
        : log(log_), id(log_.open(name, parent, std::move(args)))
    {
    }
    ~ScopedSpan() { log.close(id); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    SpanLog &log;
    const int id;
};

enum Hook
{
    kObserveAccess,
    kShouldProtect,
    kInstrMissPrefetch,
    kObserveInsert,
    kObserveEvict,
    kNumHooks
};

const char *const kHookNames[kNumHooks] = {
    "observe_access", "should_protect", "instr_miss_prefetch",
    "observe_insert", "observe_evict"};

struct HookTally
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    /** Bucket b counts calls that took [2^(b-1), 2^b) ns; 0 = 0 ns. */
    std::array<std::uint64_t, 64> log2Hist{};
};

/** Forwards every LLC hook to Garibaldi and times the call. */
class TimedCompanion final : public LlcCompanion
{
  public:
    explicit TimedCompanion(LlcCompanion &inner_) : inner(inner_) {}

    void
    observeAccess(const MemAccess &acc, bool hit, Cycle now) override
    {
        Clock::time_point t0 = Clock::now();
        inner.observeAccess(acc, hit, now);
        tally(kObserveAccess, t0);
    }

    bool
    shouldProtect(Addr victim_line_addr) override
    {
        Clock::time_point t0 = Clock::now();
        bool grant = inner.shouldProtect(victim_line_addr);
        tally(kShouldProtect, t0);
        return grant;
    }

    void
    instrMissPrefetch(Addr instr_line_addr, std::vector<Addr> &out) override
    {
        Clock::time_point t0 = Clock::now();
        inner.instrMissPrefetch(instr_line_addr, out);
        tally(kInstrMissPrefetch, t0);
    }

    void
    observeInsert(Addr line_addr, bool is_instr, bool prefetched) override
    {
        Clock::time_point t0 = Clock::now();
        inner.observeInsert(line_addr, is_instr, prefetched);
        tally(kObserveInsert, t0);
    }

    void
    observeEvict(Addr line_addr, bool is_instr) override
    {
        Clock::time_point t0 = Clock::now();
        inner.observeEvict(line_addr, is_instr);
        tally(kObserveEvict, t0);
    }

    unsigned
    maxProtectAttempts() const override
    {
        return inner.maxProtectAttempts();
    }

    Cycle queryCost() const override { return inner.queryCost(); }

    const std::array<HookTally, kNumHooks> &tallies() const { return hooks; }

  private:
    void
    tally(Hook h, Clock::time_point t0)
    {
        auto ns = static_cast<std::uint64_t>(nsBetween(t0, Clock::now()));
        HookTally &t = hooks[h];
        ++t.calls;
        t.ns += ns;
        std::size_t bucket = 0;
        while (bucket < t.log2Hist.size() - 1 && (ns >> bucket) != 0)
            ++bucket;
        ++t.log2Hist[bucket];
    }

    LlcCompanion &inner;
    std::array<HookTally, kNumHooks> hooks{};
};

/** Mean cost of one steady_clock::now() call, in ns. */
double
clockCostNs()
{
    constexpr int kCalls = 200000;
    Clock::time_point t0 = Clock::now();
    Clock::time_point last = t0;
    for (int i = 0; i < kCalls; ++i)
        last = Clock::now();
    return static_cast<double>(nsBetween(t0, last)) / kCalls;
}

/** FNV-1a over the simulated outputs of every job, in job order. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        bytes(s.data(), s.size());
        u64(s.size());
    }
    void
    stats(const StatSet &s)
    {
        for (const auto &[name, value] : s.entries()) {
            str(name);
            f64(value);
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** One workload: run lengths and the jobs (config x mix) of a rep. */
struct Workload
{
    std::uint64_t warmup = 0;
    std::uint64_t detailed = 0;
    /** fig11_sweep: untraced reps run the jobs through SweepRunner. */
    bool sweep = false;
    SystemConfig base;
    std::vector<SweepJob> jobs;
};

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             std::uint64_t scale_div)
{
    Workload w;
    std::vector<Mix> mixes;
    std::vector<PolicyVariant> policies;
    if (name == "verilator8") {
        w.base = defaultConfig(8);
        w.warmup = 500000;
        w.detailed = 1000000;
        mixes = {homogeneousMix("verilator", 8)};
        policies = {{"mockingjay", PolicyKind::Mockingjay, false},
                    {"mockingjay+g", PolicyKind::Mockingjay, true}};
    } else if (name == "spec8_lru") {
        w.base = defaultConfig(8);
        w.warmup = 400000;
        w.detailed = 800000;
        mixes = {serverFractionMix(kMixSeed, 8, 0.0)};
        policies = {{"lru", PolicyKind::LRU, false},
                    {"lru+g", PolicyKind::LRU, true}};
    } else if (name == "mix16_banked") {
        // bank_sensitivity's --contention and --dram-timing defaults.
        w.base = defaultConfig(16);
        w.base.llcBanks = 4;
        w.base.llcBankServiceCycles = 4;
        w.base.llcBankPorts = 1;
        w.base.dram.rowBits = 7;
        w.base.dram.turnaroundCycles = 12;
        w.base.dram.refreshIntervalCycles = 11700;
        w.base.dram.refreshPenaltyCycles = 885;
        w.base.dramFedLlcMshrs = true;
        w.warmup = 250000;
        w.detailed = 500000;
        mixes = {randomServerMix(kMixSeed, 16)};
        policies = {{"mockingjay", PolicyKind::Mockingjay, false},
                    {"mockingjay+g", PolicyKind::Mockingjay, true}};
    } else if (name == "fig11_sweep") {
        // fig11_end_to_end at its defaults, two mixes.
        w.base = defaultConfig(8);
        w.warmup = 150000;
        w.detailed = 300000;
        w.sweep = true;
        mixes = {randomServerMix(kMixSeed, 8),
                 randomServerMix(kMixSeed + 1, 8)};
        policies = {{"lru", PolicyKind::LRU, false},
                    {"hawkeye", PolicyKind::Hawkeye, false},
                    {"hawkeye+g", PolicyKind::Hawkeye, true},
                    {"mockingjay", PolicyKind::Mockingjay, false},
                    {"mockingjay+g", PolicyKind::Mockingjay, true}};
    } else {
        fatal("unknown workload '", name,
              "' (verilator8, spec8_lru, mix16_banked, fig11_sweep)");
    }
    if (scale_div == 0 || w.detailed / scale_div == 0)
        fatal("--scale-div must be in [1, ", w.detailed, "]");
    w.warmup /= scale_div;
    w.detailed /= scale_div;
    w.base.seed = seed;
    SweepSpec spec(w.base);
    spec.mixes(mixes).policies(policies);
    w.jobs = spec.expand();
    return w;
}

/** Simulated outputs of one finished job. */
JsonValue
jobRecord(const SweepJob &job, const SimResult &r, double metric,
          Digest &digest)
{
    digest.str(job.describe());
    JsonValue cores = JsonValue::array();
    CpiStack cpi = r.totalCpi();
    for (const CoreResult &c : r.cores) {
        digest.u64(c.instructions);
        digest.u64(c.cycles);
        digest.f64(c.ipc);
        for (std::uint64_t cyc : c.cpi.cycles)
            digest.u64(cyc);
        JsonValue jc = JsonValue::object();
        jc.set("instructions", num(static_cast<double>(c.instructions)));
        jc.set("cycles", num(static_cast<double>(c.cycles)));
        jc.set("ipc", num(c.ipc));
        cores.push(std::move(jc));
    }
    digest.stats(r.mem);
    digest.stats(r.garibaldi);
    digest.stats(r.tlb);
    digest.f64(metric);

    auto statsJson = [](const StatSet &s) {
        JsonValue o = JsonValue::object();
        for (const auto &[name, value] : s.entries())
            o.set(name, num(value));
        return o;
    };
    JsonValue cpiJson = JsonValue::object();
    for (std::size_t i = 0; i < kNumCpiComponents; ++i)
        cpiJson.set(cpiComponentName(static_cast<CpiComponent>(i)),
                    num(static_cast<double>(cpi.cycles[i])));

    JsonValue j = JsonValue::object();
    j.set("policy", JsonValue::string(job.coord("policy")));
    j.set("mix", JsonValue::string(job.mix.name));
    j.set("slots", [&job] {
        JsonValue a = JsonValue::array();
        for (const std::string &s : job.mix.slots)
            a.push(JsonValue::string(s));
        return a;
    }());
    j.set("garibaldi", JsonValue::boolean(job.config.garibaldiEnabled));
    j.set("config", JsonValue::string(job.config.summary()));
    j.set("llc_lines",
          num(static_cast<double>(job.config.llcBytes() / 64)));
    j.set("metric", num(metric));
    j.set("cores", std::move(cores));
    j.set("cpi", std::move(cpiJson));
    j.set("mem", statsJson(r.mem));
    j.set("gari", statsJson(r.garibaldi));
    return j;
}

/** Construct @p job's System kSetupReps times; keep the last one. */
std::unique_ptr<System>
setUp(const SweepJob &job, SpanLog &spans, int parent, JsonValue &samples)
{
    ScopedSpan span(spans, "setup", parent);
    std::unique_ptr<System> sys;
    for (int k = 0; k < kSetupReps; ++k) {
        sys.reset();
        Clock::time_point t0 = Clock::now();
        sys = std::make_unique<System>(job.config, job.mix);
        samples.push(num(nsBetween(t0, Clock::now()) * 1e-9));
    }
    return sys;
}

/**
 * Pull the rep's op count from each core's stream, timed apart from
 * the core model (the streams are past the simulated window, so the
 * probe continues the same instances).
 */
JsonValue
probeFill(System &sys, std::uint64_t ops_per_core, SpanLog &spans,
          int parent)
{
    ScopedSpan span(spans, "workloads.fill", parent);
    constexpr std::size_t kChunk = 64;
    std::vector<MicroOp> buf(kChunk);
    std::uint64_t ops = 0;
    Clock::time_point t0 = Clock::now();
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        for (std::uint64_t left = ops_per_core; left > 0;) {
            std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(kChunk, left));
            sys.stream(c).fill(buf.data(), n);
            left -= n;
            ops += n;
        }
    }
    double ns = static_cast<double>(nsBetween(t0, Clock::now()));
    JsonValue j = JsonValue::object();
    j.set("ops", num(static_cast<double>(ops)));
    j.set("ns", num(ns));
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Benchmark driver: one rep of one workload, JSON on "
                   "stdout (see benchmark/README.md)");
    args.addString("workload", "",
                   "verilator8 | spec8_lru | mix16_banked | fig11_sweep");
    args.addInt("seed", 1, "workload seed");
    args.addInt("scale-div", 1,
                "divide warmup and detailed lengths (smoke runs)");
    args.addFlag("trace", "time the Garibaldi hooks and probe the "
                          "workload streams");
    args.parse(argc, argv);
    const std::string name = args.getString("workload");
    const std::int64_t seed = args.getInt("seed");
    const std::int64_t scale_div = args.getInt("scale-div");
    const bool traced = args.getFlag("trace");
    if (seed < 0 || scale_div <= 0)
        fatal("--seed must be >= 0 and --scale-div > 0");

    Workload w = makeWorkload(name, static_cast<std::uint64_t>(seed),
                              static_cast<std::uint64_t>(scale_div));
    const double clock_ns = traced ? clockCostNs() : 0.0;

    SpanLog spans;
    const int root = spans.open("rep", -1);
    ExperimentContext ctx(w.base, w.warmup, w.detailed);
    Digest digest;
    JsonValue jobs = JsonValue::array();
    std::vector<JsonValue> setups(w.jobs.size(), JsonValue::array());

    if (w.sweep) {
        // Weighted speedup needs solo IPCs; warm them in their own
        // span so the sweep span times only the jobs.
        ScopedSpan span(spans, "sweep.solo", root);
        std::vector<std::string> seen;
        for (const SweepJob &job : w.jobs)
            for (const std::string &s : job.mix.slots)
                if (std::find(seen.begin(), seen.end(), s) == seen.end()) {
                    seen.push_back(s);
                    ctx.soloIpc(s);
                }
    }

    if (w.sweep && !traced) {
        // Set-up is timed on Systems built before the sweep, since the
        // sweep builds its own inside ExperimentContext::run.
        for (std::size_t i = 0; i < w.jobs.size(); ++i)
            setUp(w.jobs[i], spans, root, setups[i]);

        std::vector<SimResult> results(w.jobs.size());
        std::vector<std::int64_t> done(w.jobs.size(), 0);
        SweepOptions opts;
        opts.jobs = 1;
        opts.extraMetrics.push_back(
            {"bench_capture",
             [&](const SimResult &r, const SweepJob &job) {
                 results[job.index] = r;
                 done[job.index] = spans.now();
                 return 0.0;
             }});
        int sweep_span = spans.open("simulate", root);
        SweepRunner(ctx).run(w.jobs, opts);
        spans.close(sweep_span);

        ScopedSpan stats(spans, "stats", root);
        std::int64_t prev = spans.start(sweep_span);
        for (std::size_t i = 0; i < w.jobs.size(); ++i) {
            JsonValue a = JsonValue::object();
            a.set("job", JsonValue::string(w.jobs[i].describe()));
            spans.add("job", sweep_span, prev, done[i], std::move(a));
            JsonValue rec =
                jobRecord(w.jobs[i], results[i],
                          ctx.metric(results[i], w.jobs[i].mix), digest);
            rec.set("simulate_s", num((done[i] - prev) * 1e-9));
            rec.set("setup_s", setups[i]);
            jobs.push(std::move(rec));
            prev = done[i];
        }
    } else {
        std::vector<std::string> probed_mixes;
        for (std::size_t i = 0; i < w.jobs.size(); ++i) {
            const SweepJob &job = w.jobs[i];
            int parent = root;
            std::unique_ptr<ScopedSpan> job_span;
            if (w.sweep) {
                JsonValue a = JsonValue::object();
                a.set("job", JsonValue::string(job.describe()));
                job_span = std::make_unique<ScopedSpan>(spans, "job", root,
                                                        std::move(a));
                parent = job_span->id;
            }
            std::unique_ptr<System> sys =
                setUp(job, spans, parent, setups[i]);

            std::unique_ptr<TimedCompanion> timed;
            if (traced && sys->garibaldi()) {
                timed = std::make_unique<TimedCompanion>(*sys->garibaldi());
                sys->hierarchy().setLlcCompanion(timed.get());
            }
            SimResult r;
            int sim_span = spans.open("simulate", parent);
            {
                Simulator sim(*sys);
                r = sim.run(w.warmup, w.detailed);
            }
            spans.close(sim_span);
            const double simulate_s =
                (spans.now() - spans.start(sim_span)) * 1e-9;

            JsonValue hooks = JsonValue::object();
            if (timed) {
                // Aggregate spans laid end to end inside simulate.
                std::int64_t at = spans.start(sim_span);
                for (int h = 0; h < kNumHooks; ++h) {
                    const HookTally &t = timed->tallies()[h];
                    std::size_t last = t.log2Hist.size();
                    while (last > 0 && t.log2Hist[last - 1] == 0)
                        --last;
                    JsonValue hist = JsonValue::array();
                    for (std::size_t b = 0; b < last; ++b)
                        hist.push(num(static_cast<double>(t.log2Hist[b])));
                    JsonValue a = JsonValue::object();
                    a.set("calls", num(static_cast<double>(t.calls)));
                    a.set("ns", num(static_cast<double>(t.ns)));
                    a.set("log2_ns_hist", std::move(hist));
                    hooks.set(kHookNames[h], a);
                    const auto dur = static_cast<std::int64_t>(t.ns);
                    spans.add(std::string("garibaldi.") + kHookNames[h],
                              sim_span, at, at + dur, std::move(a));
                    at += dur;
                }
            }

            JsonValue fill;
            if (traced &&
                std::find(probed_mixes.begin(), probed_mixes.end(),
                          job.mix.name) == probed_mixes.end()) {
                probed_mixes.push_back(job.mix.name);
                fill = probeFill(*sys, w.warmup + w.detailed, spans,
                                 parent);
            }

            ScopedSpan stats(spans, "stats", parent);
            double cumulative_misses =
                sys->hierarchy().stats().get("llc.misses");
            JsonValue rec = jobRecord(job, r,
                                      w.sweep ? ctx.metric(r, job.mix)
                                              : r.ipcHarmonicMean(),
                                      digest);
            rec.set("llc_warm_misses",
                    num(cumulative_misses - r.mem.get("llc.misses")));
            rec.set("simulate_s", num(simulate_s));
            rec.set("setup_s", setups[i]);
            if (timed)
                rec.set("hooks", std::move(hooks));
            if (!fill.isNull())
                rec.set("fill", std::move(fill));
            jobs.push(std::move(rec));
            timed.reset();
            sys.reset();
        }
    }
    spans.close(root);

    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);

    JsonValue out = JsonValue::object();
    out.set("workload", JsonValue::string(name));
    out.set("seed", num(static_cast<double>(seed)));
    out.set("scale_div", num(static_cast<double>(scale_div)));
    out.set("traced", JsonValue::boolean(traced));
    out.set("cores", num(w.base.numCores));
    out.set("warmup", num(static_cast<double>(w.warmup)));
    out.set("detailed", num(static_cast<double>(w.detailed)));
    out.set("setup_reps", num(kSetupReps));
    out.set("peak_rss_mb", num(static_cast<double>(ru.ru_maxrss) / 1024.0));
    out.set("clock_ns", num(clock_ns));
    out.set("digest", JsonValue::string(digest.hex()));
    out.set("jobs", std::move(jobs));
    out.set("spans", spans.toJson());
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
