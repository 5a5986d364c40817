#include "sweep/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace garibaldi
{

namespace
{

/**
 * Hard ceiling on worker threads: far above any sane sweep width but
 * low enough that a typo'd --jobs can't abort the process in
 * std::thread creation.
 */
constexpr unsigned kMaxWorkers = 256;

/** Clamp a --jobs request: 0 means "all hardware threads". */
unsigned
resolveJobCount(unsigned requested)
{
    if (requested == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        return hw != 0 ? hw : 1;
    }
    if (requested > kMaxWorkers) {
        warn("clamping worker count ", requested, " to ", kMaxWorkers);
        return kMaxWorkers;
    }
    return requested;
}

} // namespace

void
parallelFor(unsigned jobs, std::size_t count,
            const std::function<void(std::size_t)> &body)
{
    std::size_t lanes =
        std::min<std::size_t>(resolveJobCount(jobs), count);
    if (lanes <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(lanes);
    for (std::size_t t = 0; t < lanes; ++t)
        workers.emplace_back([&next, count, &body] {
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1))
                body(i);
        });
    for (std::thread &w : workers)
        w.join();
}

SweepRunner::SweepRunner(const ExperimentContext &ctx_) : ctx(ctx_) {}

ResultsTable
SweepRunner::run(const SweepSpec &spec, const SweepOptions &opts) const
{
    return run(spec.expand(), opts);
}

ResultsTable
SweepRunner::run(const std::vector<SweepJob> &jobs,
                 const SweepOptions &opts) const
{
    // Union of coordinate axes, in first-appearance order.
    std::vector<std::string> coord_cols;
    for (const SweepJob &j : jobs)
        for (const auto &kv : j.coords)
            if (std::find(coord_cols.begin(), coord_cols.end(),
                          kv.first) == coord_cols.end())
                coord_cols.push_back(kv.first);

    std::vector<std::string> metric_cols{"metric"};
    for (const MetricColumn &m : opts.extraMetrics)
        metric_cols.push_back(m.name);

    ResultsTable table(coord_cols, metric_cols);
    table.resize(jobs.size());
    if (jobs.empty())
        return table;

    // The template is validated per job AFTER its output paths are
    // filled in (the ObsSubsystem ctor re-runs ObsConfig::validate);
    // checking it here would reject a telemetry template whose JSONL
    // path is legitimately still empty.
    const bool obs_on = !opts.obsDir.empty();
    if (obs_on) {
        if (!opts.obsTemplate.anyOn())
            fatal("sweep: obsDir set but every obs knob in the "
                  "template is off");
        ensureDirectories(opts.obsDir);
    }

    // Pre-warm the solo-IPC cache: heterogeneous mixes need per-
    // workload solo baselines for the weighted-speedup metric, and
    // warming them here (itself in parallel — solo runs are
    // independent) keeps the fan-out below free of cache misses.
    std::vector<std::string> solo_workloads;
    for (const SweepJob &j : jobs) {
        if (j.mix.homogeneous())
            continue;
        for (const std::string &w : j.mix.slots)
            if (std::find(solo_workloads.begin(), solo_workloads.end(),
                          w) == solo_workloads.end())
                solo_workloads.push_back(w);
    }
    if (!solo_workloads.empty()) {
        if (opts.progress)
            std::fprintf(stderr,
                         "sweep: pre-warming %zu solo IPC(s)\n",
                         solo_workloads.size());
        parallelFor(opts.jobs, solo_workloads.size(),
                    [&](std::size_t i) {
                        ctx.soloIpc(solo_workloads[i]);
                    });
    }

    std::mutex progress_mtx;
    std::size_t done = 0;
    parallelFor(opts.jobs, jobs.size(), [&](std::size_t i) {
        const SweepJob &job = jobs[i];
        SimResult result;
        if (obs_on) {
            // Per-job artifact paths keyed by job INDEX: workers race,
            // indices don't, so reruns at any --jobs value produce the
            // same file set with the same contents.
            char stem[32];
            std::snprintf(stem, sizeof(stem), "/job%04zu", i);
            SystemConfig cfg = job.config;
            cfg.obs = opts.obsTemplate;
            if (cfg.obs.tracingOn())
                cfg.obs.traceOut = opts.obsDir + stem + ".trace.json";
            if (cfg.obs.telemetryOn())
                cfg.obs.telemetryOut =
                    opts.obsDir + stem + ".telemetry.jsonl";
            result = ctx.run(cfg, job.mix);
        } else {
            result = ctx.run(job.config, job.mix);
        }
        std::vector<double> metrics;
        metrics.reserve(metric_cols.size());
        metrics.push_back(ctx.metric(result, job.mix));
        for (const MetricColumn &m : opts.extraMetrics)
            metrics.push_back(m.extract(result, job));

        // Project the job's coordinates onto the union columns.
        std::vector<std::string> coords;
        coords.reserve(coord_cols.size());
        for (const std::string &col : coord_cols)
            coords.push_back(job.hasCoord(col) ? job.coord(col) : "");

        table.setRow(i, std::move(coords), std::move(metrics));

        if (opts.progress) {
            std::lock_guard<std::mutex> lk(progress_mtx);
            ++done;
            std::fprintf(stderr, "sweep: %zu/%zu  %s\n", done,
                         jobs.size(), job.describe().c_str());
        }
    });

    return table;
}

} // namespace garibaldi
