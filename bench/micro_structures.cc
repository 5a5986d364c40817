/**
 * @file
 * google-benchmark microbenchmarks of the hot structures: cache
 * lookup/insert, pair-table update/query, helper-table translation,
 * TAGE prediction, Mockingjay access path and the end-to-end simulator
 * step rate.  These guard the simulator's throughput (a single-core
 * machine runs the whole figure suite).
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "core/branch/tage.hh"
#include "garibaldi/garibaldi.hh"
#include "mem/cache.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"

using namespace garibaldi;

namespace
{

void
BM_CacheAccessHit(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 1024 * 1024;
    p.assoc = 8;
    Cache cache(p);
    MemAccess a;
    a.paddr = 0x100000;
    cache.insert(a);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(a));
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheMissInsert(benchmark::State &state)
{
    CacheParams p;
    p.sizeBytes = 1024 * 1024;
    p.assoc = 8;
    p.policy = PolicyKind::Mockingjay;
    Cache cache(p);
    Pcg32 rng(1, 1);
    MemAccess a;
    for (auto _ : state) {
        a.paddr = Addr{rng.next()} << kLineShift;
        a.pc = rng.next();
        cache.access(a);
        cache.insert(a);
    }
}
BENCHMARK(BM_CacheMissInsert);

/**
 * Per-policy access+insert churn: one row per PolicyKind so a hot-path
 * regression in a single policy's dispatch, victim scan or training
 * hooks shows up against its own baseline instead of being averaged
 * into a mixed number.
 */
void
BM_PolicyChurn(benchmark::State &state, PolicyKind kind)
{
    CacheParams p;
    p.sizeBytes = 1024 * 1024;
    p.assoc = 16;
    p.policy = kind;
    Cache cache(p);
    Pcg32 rng(7, 11);
    MemAccess a;
    for (auto _ : state) {
        // Bounded footprint: enough lines to churn every set, enough
        // reuse that hit paths (onHit/promote) run too.
        a.paddr = Addr{rng.next() & 0x3ffff} << kLineShift;
        a.pc = 0x400000 + (rng.next() & 0xfffc);
        if (!cache.access(a))
            cache.insert(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PolicyChurn, lru, PolicyKind::LRU);
BENCHMARK_CAPTURE(BM_PolicyChurn, drrip, PolicyKind::DRRIP);
BENCHMARK_CAPTURE(BM_PolicyChurn, hawkeye, PolicyKind::Hawkeye);
BENCHMARK_CAPTURE(BM_PolicyChurn, mockingjay, PolicyKind::Mockingjay);

void
BM_PairTableUpdate(benchmark::State &state)
{
    GaribaldiParams gp;
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Pcg32 rng(2, 2);
    for (auto _ : state) {
        Addr il = Addr{rng.nextBounded(1 << 16)} << kLineShift;
        Addr dl = Addr{rng.nextBounded(1 << 16)} << kLineShift;
        pt.updateOnDataAccess(il, dl, rng.chance(0.5), 0, 32);
    }
}
BENCHMARK(BM_PairTableUpdate);

void
BM_PairTableQuery(benchmark::State &state)
{
    GaribaldiParams gp;
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    for (Addr i = 0; i < 1024; ++i)
        pt.updateOnDataAccess(i << kLineShift, 0x900000, true, 0, 32);
    Pcg32 rng(3, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pt.query(Addr{rng.nextBounded(1024)} << kLineShift, 2));
    }
}
BENCHMARK(BM_PairTableQuery);

void
BM_HelperTableTranslate(benchmark::State &state)
{
    HelperTable h(128, 4);
    for (Addr v = 0; v < 128; ++v)
        h.record(v, v + 1000);
    Pcg32 rng(4, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(h.lookup(rng.nextBounded(160)));
}
BENCHMARK(BM_HelperTableTranslate);

void
BM_TageResolve(benchmark::State &state)
{
    TagePredictor bp;
    Pcg32 rng(5, 5);
    for (auto _ : state) {
        Addr pc = 0x4000 + (rng.next() & 0xfff);
        bool taken = rng.chance(0.7);
        benchmark::DoNotOptimize(bp.resolve(pc, taken));
    }
}
BENCHMARK(BM_TageResolve);

void
BM_SimulatorStepRate(benchmark::State &state)
{
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.llcPolicy = PolicyKind::Mockingjay;
    cfg.garibaldiEnabled = true;
    System sys(cfg, homogeneousMix("tpcc", 2));
    SynthWorkload &stream = sys.stream(0);
    CoreModel &core = sys.core(0);
    for (auto _ : state)
        core.step(stream.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorStepRate);

} // namespace

BENCHMARK_MAIN();
