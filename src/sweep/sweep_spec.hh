/**
 * @file
 * Declarative configuration sweeps.
 *
 * A SweepSpec names axes over SystemConfig knobs (LLC bank count,
 * interleave shift, capacity, associativity, core count), replacement
 * policy (+ Garibaldi on/off) and workload mixes.  expand() takes the
 * cross product in a deterministic row-major order (axes vary
 * slowest-first in declaration order) and yields self-contained
 * SweepJobs: every job carries its own SystemConfig and Mix, fixed at
 * expansion time, so results are byte-identical no matter how many
 * worker threads later execute them.
 */

#ifndef GARIBALDI_SWEEP_SWEEP_SPEC_HH
#define GARIBALDI_SWEEP_SWEEP_SPEC_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/system_config.hh"
#include "workloads/mix.hh"

namespace garibaldi
{

/** The (config, mix) coordinate an axis value mutates. */
struct SweepPoint
{
    SystemConfig config;
    Mix mix;
};

/** One labelled setting of an axis. */
struct AxisValue
{
    std::string label;
    std::function<void(SweepPoint &)> apply;
};

/** A named list of settings; the cross product of axes forms jobs. */
struct SweepAxis
{
    std::string name;
    std::vector<AxisValue> values;
};

/** One fully-resolved simulation job. */
struct SweepJob
{
    std::size_t index = 0; //!< position in expansion order
    SystemConfig config;
    Mix mix;
    /** (axis, value label) per axis, in declaration order. */
    std::vector<std::pair<std::string, std::string>> coords;

    /** Label of @p axis; fatal() when the axis is absent. */
    const std::string &coord(const std::string &axis) const;
    /** True when the job has a coordinate on @p axis. */
    bool hasCoord(const std::string &axis) const;
    /** "banks=4 shift=2 mix=m1" form for progress lines. */
    std::string describe() const;
};

/** A policy-axis setting: replacement policy, optionally + Garibaldi. */
struct PolicyVariant
{
    std::string label;
    PolicyKind kind = PolicyKind::LRU;
    bool garibaldi = false;
};

/** Builder for sweep specifications. */
class SweepSpec
{
  public:
    /** @param base the configuration template every job starts from. */
    explicit SweepSpec(SystemConfig base);

    /** Constant coordinate on every job (distinguishes merged specs). */
    SweepSpec &tag(const std::string &axis, const std::string &label);

    /** Fully custom axis; values apply in declaration order. */
    SweepSpec &axis(SweepAxis ax);
    SweepSpec &axis(const std::string &name,
                    std::vector<AxisValue> values);

    // Named SystemConfig knob axes.
    SweepSpec &llcBanks(const std::vector<std::uint32_t> &counts);
    SweepSpec &
    llcBankInterleaveShift(const std::vector<std::uint32_t> &shifts);
    /** DRAM channel count ("dramch"). */
    SweepSpec &dramChannels(const std::vector<std::uint32_t> &channels);
    /** LLC capacity per core, in KB. */
    SweepSpec &llcSizeKb(const std::vector<std::uint64_t> &kb_per_core);
    SweepSpec &llcAssociativity(const std::vector<std::uint32_t> &ways);
    SweepSpec &coreCounts(const std::vector<std::uint32_t> &cores);

    /** Policy axis ("policy"). */
    SweepSpec &policies(const std::vector<PolicyVariant> &variants);

    /** Mix axis ("mix") over explicit mixes. */
    SweepSpec &mixes(const std::vector<Mix> &ms);

    /**
     * Mix axis whose values draw a random server mix per job from
     * (seed, config.numCores) — pairs correctly with a coreCounts()
     * axis declared earlier, since axes apply in declaration order.
     */
    SweepSpec &randomServerMixes(std::uint64_t seed, int count);

    /** Product of axis sizes. */
    std::size_t jobCount() const;

    /** Cross product, row-major in declaration order. */
    std::vector<SweepJob> expand() const;

  private:
    SystemConfig base;
    std::vector<SweepAxis> axes;
};

/** The standard policy ladders used by the figure benches. */
std::vector<PolicyVariant> lruMockingjayLadder();

/**
 * Axis value that replaces the whole config with @p cfg — the common
 * way to sweep hand-built configuration variants.
 */
AxisValue configValue(std::string label, SystemConfig cfg);

/** Append @p more jobs to @p jobs, re-numbering their indices. */
void appendJobs(std::vector<SweepJob> &jobs,
                std::vector<SweepJob> more);

} // namespace garibaldi

#endif // GARIBALDI_SWEEP_SWEEP_SPEC_HH
