#include "sim/metrics.hh"

#include <cmath>

#include "common/logging.hh"

namespace garibaldi
{

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double denom = 0;
    for (double v : values) {
        if (v <= 0)
            return 0;
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values) {
        if (v <= 0)
            return 0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
weightedSpeedup(const std::vector<double> &shared_ipc,
                const std::vector<double> &single_ipc)
{
    if (shared_ipc.size() != single_ipc.size())
        fatal("weightedSpeedup: size mismatch");
    double sum = 0;
    for (std::size_t i = 0; i < shared_ipc.size(); ++i) {
        if (single_ipc[i] <= 0)
            fatal("weightedSpeedup: non-positive solo IPC");
        sum += shared_ipc[i] / single_ipc[i];
    }
    return sum;
}

StatSet
windowedStatDelta(const StatSet &after, const StatSet &before)
{
    StatSet out;
    const auto &entries = after.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &[name, value] = entries[i];
        const StatSet::Rule &rule = after.rules()[i];
        switch (rule.window) {
          case WindowRule::Subtract:
            out.add(name,
                    value - (before.has(name) ? before.get(name) : 0.0));
            break;
          case WindowRule::KeepLast:
            out.addGauge(name, value);
            break;
          case WindowRule::Recompute:
            // A rate's raws precede it, so they are windowed already.
            out.addRate(name, rule.rate.num, rule.rate.den);
            break;
        }
    }
    return out;
}

} // namespace garibaldi
