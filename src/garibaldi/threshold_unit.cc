#include "garibaldi/threshold_unit.hh"

#include <algorithm>

#include "common/logging.hh"

namespace garibaldi
{

ThresholdUnit::ThresholdUnit(const GaribaldiParams &params_,
                             std::uint32_t num_cores)
    : params(params_), numColors(1u << params_.colorBits),
      dynThreshold(kThresholdInit),
      rings(num_cores)
{
    if (params.colorPeriod == 0)
        fatal("color period must be non-zero");
    for (auto &r : rings)
        r.pcs.assign(kRecentIMissPcs, 0);
}

void
ThresholdUnit::onLlcAccess(bool hit)
{
    ++periodAccesses;
    if (!hit)
        ++periodMisses;
    if (periodAccesses >= params.colorPeriod)
        rotate();
}

void
ThresholdUnit::onInstrMiss(CoreId core, Addr pc)
{
    PcRing &r = rings.at(core);
    r.pcs[r.pos] = lineAlign(pc);
    r.pos = (r.pos + 1) % r.pcs.size();
}

void
ThresholdUnit::onDataAccess(CoreId core, Addr pc, bool hit)
{
    const PcRing &r = rings.at(core);
    Addr key = lineAlign(pc);
    for (Addr p : r.pcs) {
        if (p == key && p != 0) {
            ++matchedTotal;
            if (!hit)
                ++matchedMisses;
            return;
        }
    }
}

void
ThresholdUnit::rotate()
{
    lastMissRate = periodAccesses
        ? static_cast<double>(periodMisses) / periodAccesses : 0.0;
    lastPdMiss = matchedTotal
        ? static_cast<double>(matchedMisses) / matchedTotal : lastMissRate;

    if (params.thresholdMode == ThresholdMode::Dynamic &&
        matchedTotal > 0) {
        if (lastPdMiss < lastMissRate - kThresholdMargin) {
            // Data behind instruction misses is being served: retain
            // more instructions.
            if (dynThreshold > 1)
                --dynThreshold;
            ++nThresholdDowns;
        } else if (lastPdMiss > lastMissRate + kThresholdMargin) {
            // Indiscriminate protection is hurting the miss rate: be
            // more selective.
            if (dynThreshold < kMissCostMax)
                ++dynThreshold;
            ++nThresholdUps;
        }
    }

    periodAccesses = 0;
    periodMisses = 0;
    matchedTotal = 0;
    matchedMisses = 0;
    currentColor = (currentColor + 1) & (numColors - 1);
    ++nRotations;
}

unsigned
ThresholdUnit::threshold() const
{
    switch (params.thresholdMode) {
      case ThresholdMode::AllProtected:
        return 0;
      case ThresholdMode::Fixed: {
          int t = static_cast<int>(kThresholdInit) +
                  params.fixedThresholdDelta;
          t = std::clamp(t, 1, static_cast<int>(kMissCostMax));
          return static_cast<unsigned>(t);
      }
      case ThresholdMode::Dynamic:
      default:
        return dynThreshold;
    }
}

StatSet
ThresholdUnit::stats() const
{
    StatSet s;
    s.addGauge("threshold", static_cast<double>(threshold()));
    s.addGauge("color", static_cast<double>(currentColor));
    s.add("rotations", static_cast<double>(nRotations));
    s.add("threshold_ups", static_cast<double>(nThresholdUps));
    s.add("threshold_downs", static_cast<double>(nThresholdDowns));
    s.addGauge("last_pdmiss", lastPdMiss);
    s.addGauge("last_llc_miss_rate", lastMissRate);
    return s;
}

} // namespace garibaldi
