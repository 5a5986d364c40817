#include "mem/policy/sampled_history.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/logging.hh"

namespace garibaldi
{

SampledHistory::SampledHistory(std::uint32_t num_sets,
                               unsigned sample_shift,
                               std::uint32_t history_len,
                               std::size_t row_bytes)
    : sampleShift(sample_shift),
      numSampled(num_sets >= (1u << sample_shift) ? num_sets >> sample_shift
                                                  : 1),
      historyLen(history_len),
      rowOffset((std::size_t{history_len} + 1) *
                (2 * sizeof(std::uint64_t) + sizeof(std::uint16_t))),
      blockBytes(rowOffset + row_bytes),
      sets(makeZeroedArray<Set>(numSampled))
{
    if (history_len == 0)
        panic("sampled history needs a non-zero length");
}

SampledHistory::~SampledHistory()
{
    if (sets)
        for (std::size_t i = 0; i < numSampled; ++i)
            std::free(sets[i].slots);
}

SampledHistory::Access
SampledHistory::access(std::uint32_t set, Addr line, std::uint16_t sig)
{
    Set &ss = sets[set >> sampleShift];
    std::size_t cap = std::size_t{historyLen} + 1;
    if (!ss.slots) {
        ss.slots = static_cast<std::uint64_t *>(std::malloc(blockBytes));
        if (!ss.slots)
            throw std::bad_alloc();
        std::memset(row(set), 0, blockBytes - rowOffset);
    }
    Access a{++ss.tick, 0, 0, false, 0};
    Addr *lines = ss.slots;
    std::uint64_t *stamps = ss.slots + cap;
    auto *sigs = reinterpret_cast<std::uint16_t *>(ss.slots + 2 * cap);
    auto slot = static_cast<std::uint32_t>(
        std::find(lines, lines + ss.filled, line) - lines);

    if (slot < ss.filled) {
        a.reuse = a.now - stamps[slot];
        a.prevSig = sigs[slot];
        sigs[slot] = sig;
        stamps[slot] = a.now;
        return a;
    }

    lines[slot] = line;
    sigs[slot] = sig;
    stamps[slot] = a.now;
    if (++ss.filled > historyLen) {
        // The newest stamp belongs to the entry just written, so the
        // minimum is always an older one.
        auto oldest = static_cast<std::uint32_t>(
            std::min_element(stamps, stamps + ss.filled) - stamps);
        a.evicted = true;
        a.evictedSig = sigs[oldest];
        std::uint32_t last = --ss.filled;
        lines[oldest] = lines[last];
        sigs[oldest] = sigs[last];
        stamps[oldest] = stamps[last];
    }
    return a;
}

} // namespace garibaldi
