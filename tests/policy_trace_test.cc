/**
 * @file
 * Byte-identity pins for the replacement-policy hot path.  Each policy
 * drives a Cache over a long deterministic access stream (instruction
 * and data classes, writes, prefetches, two address regions) and the
 * full hit/victim/evict/stat trace is folded into an FNV-1a hash that
 * is pinned to a constant recorded from the virtual-dispatch +
 * unordered_map implementation.  The devirtualized dispatch, the
 * flattened Mockingjay sampler, and the SoA probe arrays must all
 * reproduce these traces bit-for-bit: any divergence (a different
 * victim, a different eviction order, a miscounted stat) moves the
 * hash.
 *
 * Also pins the PolicyParams defaults these hashes run with.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"

using namespace garibaldi;

namespace
{

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Run @p kind over the deterministic stream and hash the trace.  The
 * stream gives Mockingjay's and Hawkeye's sampled sets PC-correlated
 * reuse to train on, plus prefetch insertion and writeback-dirty
 * eviction.
 */
std::uint64_t
policyTraceHash(PolicyKind kind)
{
    CacheParams p;
    p.name = "trace";
    p.sizeBytes = 256 * 1024;
    p.assoc = 16;
    p.policy = kind;
    Cache cache(p);

    Pcg32 rng(123, 99);
    std::uint64_t h = 14695981039346656037ull;
    for (int i = 0; i < 200000; ++i) {
        std::uint32_t roll = rng.next() & 1023;
        MemAccess a;
        a.core = static_cast<CoreId>(rng.next() & 7);
        a.pc = 0x400000 + (Addr{rng.next() & 0xffff} << 2);
        if (roll < 300) {
            a.isInstr = true;
            a.paddr = 0x400000 + (Addr{rng.next() & 0x1fff} << 6);
        } else {
            a.isWrite = (roll & 7) == 0;
            a.isPrefetch = !a.isWrite && (roll & 15) == 1;
            a.paddr = (roll < 700 ? 0x10000000ull : 0x80000000ull) +
                      (Addr{rng.next() & 0x3fff} << 6);
        }

        bool hit = cache.access(a);
        h = fnv1a(h, hit ? 1 : 0);
        if (!hit) {
            Eviction ev = cache.insert(a);
            h = fnv1a(h, ev.valid ? 1 : 0);
            if (ev.valid) {
                h = fnv1a(h, ev.lineAddr);
                h = fnv1a(h, (ev.dirty ? 2u : 0u) |
                                 (ev.isInstr ? 1u : 0u));
            }
        }
        // QBS-style promotion through the public policy interface every
        // so often, so promote() is part of the pinned trace too.
        if ((roll & 127) == 5) {
            std::uint32_t set = cache.setOf(a.lineAddr());
            cache.policy().promote(set, rng.next() & (p.assoc - 1));
        }
    }

    const CacheStats &s = cache.stats();
    h = fnv1a(h, s.hits);
    h = fnv1a(h, s.misses);
    h = fnv1a(h, s.evictions);
    h = fnv1a(h, s.instrHits);
    h = fnv1a(h, s.instrMisses);
    h = fnv1a(h, s.instrEvictions);
    h = fnv1a(h, s.writebacksOut);
    h = fnv1a(h, s.prefetchInserts);
    h = fnv1a(h, s.prefetchUseful);
    return h;
}

} // namespace

// Golden hashes recorded from the pre-devirtualization implementation
// (virtual dispatch, unordered_map Mockingjay sampler, AoS probe).
TEST(PolicyTrace, Lru)
{
    EXPECT_EQ(policyTraceHash(PolicyKind::LRU), 11219076333493436698ull);
}

TEST(PolicyTrace, Drrip)
{
    EXPECT_EQ(policyTraceHash(PolicyKind::DRRIP), 9893988543865770805ull);
}

// Re-pinned when Hawkeye moved onto the bounded sampled history: this
// trace overflows a sampled set's window, where a line that leaves the
// history now detrains its PC.  The same structure kept unbounded, with
// the earlier wholesale clear of the PC map at 8 x historyLen lines,
// reproduces the previous hash, 8324242799302206505.
TEST(PolicyTrace, Hawkeye)
{
    EXPECT_EQ(policyTraceHash(PolicyKind::Hawkeye),
              17093685534034394673ull);
}

TEST(PolicyTrace, Mockingjay)
{
    EXPECT_EQ(policyTraceHash(PolicyKind::Mockingjay), 17482895697904067789ull);
}

// The unit tests and the PolicyTrace hashes above run with these
// defaults.  Systems do not: SystemConfig sets 5-bit counters for the
// LLC, so every System, golden and bench runs with 5 bits.  Pinning
// the defaults keeps the trace hashes reproducible across PRs.
TEST(PolicyTrace, PolicyParamsDefaultsPinned)
{
    PolicyParams p;
    EXPECT_EQ(p.counterBits, 3u);
    EXPECT_EQ(p.sampleShift, 3u);
    EXPECT_EQ(p.seed, 1ull);
}
