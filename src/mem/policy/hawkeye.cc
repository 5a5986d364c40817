#include "mem/policy/hawkeye.hh"

#include "common/intmath.hh"

namespace garibaldi
{

HawkeyePolicy::HawkeyePolicy(std::uint32_t num_sets, std::uint32_t assoc_,
                             const PolicyParams &params)
    : PolicyBase(num_sets, assoc_),
      predictor(kPredictorSize, SatCounter(3, 4)),
      lines(makeZeroedArray<LineState>(std::size_t{num_sets} * assoc_)),
      optgen(assoc_, kHistoryAssocMult * assoc_),
      history(num_sets, params.sampleShift,
              kHistoryAssocMult * assoc_, optgen.rowBytes())
{
}

std::size_t
HawkeyePolicy::pcIndex(Addr pc)
{
    return static_cast<std::size_t>(mix64(pc >> 2)) &
           (kPredictorSize - 1);
}

bool
HawkeyePolicy::isFriendly(Addr pc) const
{
    return predictor[pcIndex(pc)].isSet();
}

void
HawkeyePolicy::onAccess(std::uint32_t set, const MemAccess &acc, bool)
{
    if (!history.sampled(set) || acc.isPrefetch)
        return;
    SampledHistory::Access a =
        history.access(set, lineNumber(acc.lineAddr()),
                       static_cast<std::uint16_t>(pcIndex(acc.pc)));
    bool opt_hit = optgen.access(history.row(set), a.now, a.reuse);
    if (a.reuse) {
        // Train the PC that last touched the line: OPT hit => that
        // PC's lines are worth caching.
        if (opt_hit)
            predictor[a.prevSig].increment();
        else
            predictor[a.prevSig].decrement();
    } else if (a.evicted) {
        // The stalest line left the window unreused, so OPT would not
        // have kept it either.
        predictor[a.evictedSig].decrement();
    }
}

void
HawkeyePolicy::onHit(std::uint32_t set, std::uint32_t way,
                     const MemAccess &acc)
{
    LineState &ls = line(set, way);
    ls.friendly = isFriendly(acc.pc);
    ls.pcSig = static_cast<std::uint16_t>(pcIndex(acc.pc));
    ls.setRrpv(ls.friendly ? 0 : kMaxRrpv);
}

std::uint32_t
HawkeyePolicy::victim(std::uint32_t set, const MemAccess &)
{
    // Prefer cache-averse lines (rrpv == max); else evict the oldest
    // friendly line and detrain its PC.
    for (std::uint32_t w = 0; w < assoc; ++w)
        if (line(set, w).rrpv() >= kMaxRrpv)
            return w;
    std::uint32_t best = 0;
    unsigned best_rrpv = 0;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (line(set, w).rrpv() >= best_rrpv) {
            best_rrpv = line(set, w).rrpv();
            best = w;
        }
    }
    // Evicting a friendly line means OPT disagreed: detrain.
    LineState &ls = line(set, best);
    if (ls.valid && ls.friendly)
        predictor[ls.pcSig].decrement();
    return best;
}

void
HawkeyePolicy::onInsert(std::uint32_t set, std::uint32_t way,
                        const MemAccess &acc)
{
    LineState &ls = line(set, way);
    ls.valid = true;
    ls.pcSig = static_cast<std::uint16_t>(pcIndex(acc.pc));
    ls.friendly = !acc.isPrefetch && isFriendly(acc.pc);
    if (ls.friendly) {
        // Age other friendly lines so older friendlies become victims
        // in preference to fresh ones.
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (w != way && line(set, w).valid &&
                line(set, w).rrpv() < kMaxRrpv - 1) {
                --line(set, w).rrpvGap; // one RRPV step older
            }
        }
        ls.setRrpv(0);
    } else {
        ls.setRrpv(kMaxRrpv);
    }
}

void
HawkeyePolicy::promote(std::uint32_t set, std::uint32_t way)
{
    LineState &ls = line(set, way);
    ls.friendly = true;
    ls.setRrpv(0);
}

void
HawkeyePolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    line(set, way) = LineState{};
}

} // namespace garibaldi
