#include "mem/policy/sampled_history.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

SampledHistory::SampledHistory(std::uint32_t num_sets,
                               unsigned sample_shift,
                               std::uint32_t history_len,
                               std::size_t row_bytes)
    : sampleShift(sample_shift),
      keyShift(floorLog2(num_sets)),
      numSampled(num_sets >= (1u << sample_shift) ? num_sets >> sample_shift
                                                  : 1),
      historyLen(history_len),
      rowOffset((std::size_t{history_len} + 1) *
                (sizeof(std::uint32_t) + 2 * sizeof(std::uint16_t))),
      blockBytes(rowOffset + row_bytes),
      sets(makeZeroedArray<Set>(numSampled))
{
    checkPowerOf2(num_sets, "sampled history set count");
    if (history_len == 0 || history_len > kMaxHistoryLen)
        fatal("sampled history length must be 1..", kMaxHistoryLen,
              ", got ", history_len);
}

SampledHistory::~SampledHistory()
{
    if (sets)
        for (std::size_t i = 0; i < numSampled; ++i)
            std::free(sets[i].slots);
}

void
SampledHistory::rerank(Set &ss) const
{
    std::size_t cap = std::size_t{historyLen} + 1;
    auto *stamps = reinterpret_cast<std::uint16_t *>(ss.slots + cap);
    const std::uint32_t r = 2 * historyLen;
    std::vector<std::uint32_t> old; // slots more than r accesses old
    for (std::uint32_t i = 0; i < ss.filled; ++i)
        if (std::uint32_t{ss.top} - stamps[i] > r)
            old.push_back(i);
    std::sort(old.begin(), old.end(), [&](std::uint32_t x, std::uint32_t y) {
        return stamps[x] < stamps[y];
    });
    // The new top leaves stamps [0, m) to the m old entries, oldest
    // first, so each is more than r old; the rest keep their age.
    auto top = static_cast<std::uint16_t>(r + old.size());
    for (std::uint32_t i = 0; i < ss.filled; ++i) {
        std::uint32_t age = std::uint32_t{ss.top} - stamps[i];
        if (age <= r)
            stamps[i] = static_cast<std::uint16_t>(top - age);
    }
    for (std::size_t j = 0; j < old.size(); ++j)
        stamps[old[j]] = static_cast<std::uint16_t>(j);
    ss.top = top;
}

SampledHistory::Access
SampledHistory::access(std::uint32_t set, Addr line, std::uint16_t sig)
{
    Addr wide_key = line >> keyShift;
    if (wide_key > UINT32_MAX)
        panic("sampled history: line ", line, " needs a key wider than "
              "32 bits in a ", 1u << keyShift, "-set cache");
    auto key = static_cast<std::uint32_t>(wide_key);
    Set &ss = sets[set >> sampleShift];
    std::size_t cap = std::size_t{historyLen} + 1;
    if (!ss.slots) {
        ss.slots = static_cast<std::uint32_t *>(std::malloc(blockBytes));
        if (!ss.slots)
            throw std::bad_alloc();
        std::memset(row(set), 0, blockBytes - rowOffset);
    }
    if (ss.top == UINT16_MAX)
        rerank(ss);
    Access a{++ss.tick, 0, 0, false, 0};
    std::uint16_t now = ++ss.top;
    std::uint32_t *keys = ss.slots;
    auto *stamps = reinterpret_cast<std::uint16_t *>(keys + cap);
    std::uint16_t *sigs = stamps + cap;
    auto slot = static_cast<std::uint32_t>(
        std::find(keys, keys + ss.filled, key) - keys);

    if (slot < ss.filled) {
        a.reuse = now - stamps[slot];
        a.prevSig = sigs[slot];
        sigs[slot] = sig;
        stamps[slot] = now;
        return a;
    }

    keys[slot] = key;
    sigs[slot] = sig;
    stamps[slot] = now;
    if (++ss.filled > historyLen) {
        // The newest stamp belongs to the entry just written, so the
        // minimum is always an older one.
        std::uint32_t oldest = 0;
        for (std::uint32_t i = 1; i < ss.filled; ++i)
            if (stamps[i] < stamps[oldest])
                oldest = i;
        a.evicted = true;
        a.evictedSig = sigs[oldest];
        std::uint32_t last = --ss.filled;
        keys[oldest] = keys[last];
        sigs[oldest] = sigs[last];
        stamps[oldest] = stamps[last];
    }
    return a;
}

} // namespace garibaldi
