/**
 * @file
 * Hot-path throughput microbenchmark: drives MemoryHierarchy::access
 * with a deterministic synthetic stream (instruction fetches + loads +
 * stores over hot/warm/cold regions, interleaved across cores) and
 * reports accesses per second.  CI tracks this number so hot-path
 * regressions are visible; the stream is seeded and identical across
 * runs and build revisions.
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/rng.hh"
#include "mem/hierarchy.hh"

using namespace garibaldi;

namespace
{

HierarchyParams
benchParams(std::uint32_t cores)
{
    HierarchyParams h;
    h.numCores = cores;
    h.coresPerL2 = 4;
    h.l1i.name = "l1i";
    h.l1i.sizeBytes = 32 * 1024;
    h.l1i.assoc = 8;
    h.l1i.latency = 3;
    h.l1d = h.l1i;
    h.l1d.name = "l1d";
    h.l2.name = "l2";
    h.l2.sizeBytes = 512 * 1024;
    h.l2.assoc = 16;
    h.l2.latency = 18;
    h.llc.name = "llc";
    h.llc.sizeBytes = 4 * 1024 * 1024;
    h.llc.assoc = 16;
    h.llc.latency = 40;
    h.llc.policy = PolicyKind::Mockingjay;
    return h;
}

/** One deterministic access of the synthetic stream. */
MemAccess
nextAccess(Pcg32 &rng, CoreId core)
{
    MemAccess a;
    a.core = core;
    std::uint32_t roll = rng.next() & 1023;
    if (roll < 300) {
        // Instruction fetch over a hot 256 KB code region.
        a.isInstr = true;
        a.pc = 0x400000 + (rng.next() & 0x3ffc0);
        a.paddr = a.pc;
    } else {
        a.pc = 0x400000 + (rng.next() & 0x3ffc0);
        a.isWrite = (roll & 7) == 0;
        if (roll < 800) {
            // Hot per-core 128 KB data region: mostly L1/L2 hits.
            a.paddr = 0x10000000 + (Addr{core} << 24) +
                      (rng.next() & 0x1ffc0);
        } else if (roll < 980) {
            // Warm shared 8 MB region: L2/LLC traffic.
            a.paddr = 0x80000000 + (rng.next() & 0x7fffc0);
        } else {
            // Cold region: LLC misses to DRAM.
            a.paddr = 0x200000000ULL + (Addr{rng.next()} << 6);
        }
    }
    return a;
}

double
measure(std::uint32_t cores, std::uint32_t llc_banks,
        std::uint64_t accesses)
{
    HierarchyParams h = benchParams(cores);
    h.llcBanks = llc_banks;
    MemoryHierarchy mem(h);
    Pcg32 rng(42, 7);

    Cycle now = 0;
    auto drive = [&](std::uint64_t total) {
        for (std::uint64_t i = 0; i < total; ++i) {
            mem.access(nextAccess(rng, static_cast<CoreId>(i % cores)), now);
            now += 2;
        }
    };

    // Warm the structures so steady-state behavior dominates.
    drive(accesses / 8);

    auto start = std::chrono::steady_clock::now();
    drive(accesses);
    auto stop = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(stop - start).count();
    return static_cast<double>(accesses) / secs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t accesses = 2000000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            accesses = 500000;
    }

    std::printf("micro_pipeline: MemoryHierarchy::access throughput\n");
    std::printf("%-8s %-10s %16s\n", "cores", "llc_banks", "accesses/sec");
    const std::uint32_t bank_counts[] = {1, 2, 4, 8};
    for (std::uint32_t banks : bank_counts) {
        double rate = measure(8, banks, accesses);
        std::printf("%-8u %-10u %16.0f\n", 8u, banks, rate);
    }
    // The headline 16-core mix CI archives and floors.
    double rate16 = measure(16, 1, accesses);
    std::printf("%-8u %-10u %16.0f\n", 16u, 1u, rate16);
    return 0;
}
