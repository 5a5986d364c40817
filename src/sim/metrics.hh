/**
 * @file
 * Performance metrics of §6: harmonic-mean IPC for homogeneous mixes,
 * weighted speedup (sum of IPC_shared / IPC_single) for heterogeneous
 * mixes, and geometric means for summary rows.
 */

#ifndef GARIBALDI_SIM_METRICS_HH
#define GARIBALDI_SIM_METRICS_HH

#include <vector>

#include "common/stats.hh"

namespace garibaldi
{

/** Harmonic mean; 0 when any element is non-positive. */
double harmonicMean(const std::vector<double> &values);

/** Geometric mean; 0 when any element is non-positive. */
double geometricMean(const std::vector<double> &values);

/**
 * Weighted speedup = sum_i IPC_shared[i] / IPC_single[i].
 * Sizes must match; fatal otherwise.
 */
double weightedSpeedup(const std::vector<double> &shared_ipc,
                       const std::vector<double> &single_ipc);

/**
 * The counter delta of a window: every entry of @p after, ruled by
 * how it was added (common/stats.hh).  Counters subtract their
 * @p before reading (absent = 0); gauges, quantiles and summaries keep
 * the end-of-window reading; rates are recomputed with safeRate from
 * the windowed raw counters, because a difference of ratios is not
 * the ratio of differences.  Used by Simulator::run for the detailed
 * window and by the telemetry sink for every intra-run window, so the
 * two can never drift apart.
 */
StatSet windowedStatDelta(const StatSet &after, const StatSet &before);

} // namespace garibaldi

#endif // GARIBALDI_SIM_METRICS_HH
