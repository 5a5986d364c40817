#include "mem/policy/mockingjay.hh"

#include <algorithm>
#include <cstdlib>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

MockingjayPolicy::MockingjayPolicy(std::uint32_t num_sets,
                                   std::uint32_t assoc_,
                                   const PolicyParams &params)
    : PolicyBase(num_sets, assoc_),
      historyLen(kHistoryAssocMult * assoc_),
      maxEtr((1 << (params.counterBits - 1)) - 1),
      minEtr(-(1 << (params.counterBits - 1))),
      granularity(std::max<std::uint32_t>(
          1, historyLen / static_cast<std::uint32_t>(maxEtr))),
      rdp(kRdpSize, kUnknownRd),
      history(num_sets, params.sampleShift, historyLen),
      lines(makeZeroedArray<LineState>(std::size_t{num_sets} * assoc_)),
      promoted(num_sets, assoc_),
      agingCount(num_sets, 0)
{
    if (params.counterBits < 2 || params.counterBits > 8)
        panic("Mockingjay ETR bits out of range: ", params.counterBits);
}

std::size_t
MockingjayPolicy::pcIndex(Addr pc)
{
    return static_cast<std::size_t>(mix64(pc >> 2)) & (kRdpSize - 1);
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

    if (!history.sampled(set) || acc.isPrefetch)
        return;

    // Sampled cache: a hit trains the previous accessor's PC with the
    // observed reuse distance; the stalest entry, evicted once the set
    // holds more than historyLen, left the window unreused, so its PC
    // is trained toward scan-like (far) behavior.
    SampledHistory::Access a =
        history.access(set, lineNumber(acc.lineAddr()),
                       static_cast<std::uint16_t>(pcIndex(acc.pc)));
    if (a.reuse)
        train(a.prevSig,
              static_cast<std::uint32_t>(std::min<std::uint64_t>(
                  a.reuse, 2 * historyLen)));
    else if (a.evicted)
        train(a.evictedSig, 2 * historyLen);
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
