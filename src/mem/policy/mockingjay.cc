#include "mem/policy/mockingjay.hh"

#include <algorithm>
#include <cstdlib>
#include <new>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

MockingjayPolicy::MockingjayPolicy(std::uint32_t num_sets,
                                   std::uint32_t assoc_,
                                   const PolicyParams &params)
    : PolicyBase(num_sets, assoc_),
      sampleShift(params.sampleShift),
      historyLen(params.historyAssocMult * assoc_),
      maxEtr((1 << (params.counterBits - 1)) - 1),
      minEtr(-(1 << (params.counterBits - 1))),
      granularity(std::max<std::uint32_t>(
          1, historyLen / static_cast<std::uint32_t>(maxEtr))),
      rdp(kRdpSize, kUnknownRd),
      numSampled(num_sets >= (1u << sampleShift)
                     ? num_sets >> sampleShift : 1),
      samples(makeZeroedArray<SampledSet>(numSampled)),
      lines(makeZeroedArray<LineState>(std::size_t{num_sets} * assoc_)),
      promoted(num_sets, assoc_),
      agingCount(num_sets, 0)
{
    if (params.counterBits < 2 || params.counterBits > 8)
        panic("Mockingjay ETR bits out of range: ", params.counterBits);
}

MockingjayPolicy::~MockingjayPolicy()
{
    if (samples)
        for (std::size_t i = 0; i < numSampled; ++i)
            std::free(samples[i].slots);
}

std::size_t
MockingjayPolicy::pcIndex(Addr pc)
{
    return static_cast<std::size_t>(mix64(pc >> 2)) & (kRdpSize - 1);
}

bool
MockingjayPolicy::isSampled(std::uint32_t set) const
{
    return (set & ((1u << sampleShift) - 1)) == 0;
}

void
MockingjayPolicy::train(std::size_t sig, std::uint32_t observed)
{
    std::uint16_t &p = rdp[sig];
    std::uint32_t clamped =
        std::min<std::uint32_t>(observed, 2 * historyLen);
    if (p == kUnknownRd) {
        p = static_cast<std::uint16_t>(clamped);
    } else {
        // Exponential smoothing toward the new observation.
        p = static_cast<std::uint16_t>((3u * p + clamped) / 4u);
    }
}

std::uint32_t
MockingjayPolicy::predictedRd(Addr pc) const
{
    std::uint16_t p = rdp[pcIndex(pc)];
    // Unseen signatures bootstrap as moderately near so new program
    // phases are not starved before training catches up.
    return p == kUnknownRd ? assoc : p;
}

std::int8_t
MockingjayPolicy::etrFromRd(std::uint32_t rd) const
{
    int units = static_cast<int>(rd / granularity);
    return static_cast<std::int8_t>(std::min(units, maxEtr));
}

void
MockingjayPolicy::onAccess(std::uint32_t set, const MemAccess &acc, bool)
{
    // Aging: every `granularity` accesses to a set, every resident
    // line's time-remaining shrinks by one unit.
    if (++agingCount[set] >= granularity) {
        agingCount[set] = 0;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            LineState &ls = line(set, w);
            if (ls.valid && ls.etr > minEtr)
                --ls.etr;
        }
    }

    if (!isSampled(set) || acc.isPrefetch)
        return;

    // Sampled cache: a hit trains the previous accessor's PC with the
    // observed reuse distance; a miss appends the line, evicting the
    // stalest entry once the set holds more than historyLen.
    SampledSet &ss = samples[set >> sampleShift];
    std::size_t cap = std::size_t{historyLen} + 1;
    if (!ss.slots) {
        ss.slots = static_cast<std::uint64_t *>(
            std::malloc(cap * (2 * sizeof(std::uint64_t) +
                               sizeof(std::uint16_t))));
        if (!ss.slots)
            throw std::bad_alloc();
    }
    ++ss.tick;
    Addr *keys = ss.slots;
    std::uint64_t *stamps = ss.slots + cap;
    auto *sigs = reinterpret_cast<std::uint16_t *>(ss.slots + 2 * cap);
    Addr key = lineNumber(acc.lineAddr());
    auto sig = static_cast<std::uint16_t>(pcIndex(acc.pc));
    auto slot = static_cast<std::uint32_t>(
        std::find(keys, keys + ss.filled, key) - keys);

    if (slot < ss.filled) {
        std::uint64_t dist = ss.tick - stamps[slot];
        train(sigs[slot],
              static_cast<std::uint32_t>(std::min<std::uint64_t>(
                  dist, 2 * historyLen)));
        sigs[slot] = sig;
        stamps[slot] = ss.tick;
        return;
    }

    keys[slot] = key;
    sigs[slot] = sig;
    stamps[slot] = ss.tick;
    if (++ss.filled > historyLen) {
        // Evict the stalest sample; it left the window unreused, so
        // its PC is trained toward scan-like (far) behavior.  The
        // newest stamp belongs to the entry just written, so the
        // minimum is always an older one.
        auto oldest = static_cast<std::uint32_t>(
            std::min_element(stamps, stamps + ss.filled) - stamps);
        train(sigs[oldest], 2 * historyLen);
        std::uint32_t last = --ss.filled;
        keys[oldest] = keys[last];
        sigs[oldest] = sigs[last];
        stamps[oldest] = stamps[last];
    }
}

void
MockingjayPolicy::onHit(std::uint32_t set, std::uint32_t way,
                        const MemAccess &acc)
{
    line(set, way).etr = etrFromRd(predictedRd(acc.pc));
}

std::uint32_t
MockingjayPolicy::victim(std::uint32_t set, const MemAccess &)
{
    // Belady mimicry: evict the line whose (predicted) next use is the
    // farthest in either direction — overdue lines (negative ETR) are
    // as dead as far-future ones.
    std::uint32_t best = 0;
    int best_abs = -1;
    bool best_overdue = false;
    unsigned best_promoted = ~0u;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        const LineState &ls = line(set, w);
        int a = std::abs(ls.etr);
        bool overdue = ls.etr < 0;
        unsigned stamp = promoted.stamp(set, w);
        bool better = a > best_abs;
        if (a == best_abs) {
            // Ties: prefer overdue lines, then lines that were not
            // recently QBS-promoted (so protection makes progress even
            // when ETR quantization flattens the set).
            if (overdue && !best_overdue)
                better = true;
            else if (overdue == best_overdue &&
                     stamp < best_promoted)
                better = true;
        }
        if (better) {
            best_abs = a;
            best_overdue = overdue;
            best_promoted = stamp;
            best = w;
        }
    }
    return best;
}

void
MockingjayPolicy::onInsert(std::uint32_t set, std::uint32_t way,
                           const MemAccess &acc)
{
    LineState &ls = line(set, way);
    ls.valid = true;
    // Prefetch-aware: a prefetched line has not proven reuse, so it is
    // inserted as far-reuse and becomes the preferred victim until a
    // demand hit re-predicts it.
    ls.etr = acc.isPrefetch ? static_cast<std::int8_t>(maxEtr)
                            : etrFromRd(predictedRd(acc.pc));
}

void
MockingjayPolicy::promote(std::uint32_t set, std::uint32_t way)
{
    LineState &ls = line(set, way);
    ls.etr = 0; // |ETR| minimal => least likely victim
    promoted.touch(set, way);
}

void
MockingjayPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    line(set, way) = LineState{};
    promoted.clear(set, way);
}

int
MockingjayPolicy::effectiveEtr(std::uint32_t set, std::uint32_t way) const
{
    return line(set, way).etr;
}

} // namespace garibaldi
