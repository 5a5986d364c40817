#include "sweep/sweep_spec.hh"

#include "common/logging.hh"

namespace garibaldi
{

const std::string &
SweepJob::coord(const std::string &axis) const
{
    for (const auto &kv : coords)
        if (kv.first == axis)
            return kv.second;
    fatal("sweep job has no coordinate on axis '", axis, "'");
}

bool
SweepJob::hasCoord(const std::string &axis) const
{
    for (const auto &kv : coords)
        if (kv.first == axis)
            return true;
    return false;
}

std::string
SweepJob::describe() const
{
    std::string out;
    for (const auto &kv : coords) {
        if (!out.empty())
            out += ' ';
        out += kv.first;
        out += '=';
        out += kv.second;
    }
    return out;
}

SweepSpec::SweepSpec(SystemConfig base_) : base(std::move(base_)) {}

SweepSpec &
SweepSpec::tag(const std::string &axis_name, const std::string &label)
{
    return axis(axis_name, {{label, [](SweepPoint &) {}}});
}

SweepSpec &
SweepSpec::axis(SweepAxis ax)
{
    if (ax.values.empty())
        fatal("sweep axis '", ax.name, "' has no values");
    for (const auto &existing : axes)
        if (existing.name == ax.name)
            fatal("duplicate sweep axis '", ax.name, "'");
    axes.push_back(std::move(ax));
    return *this;
}

SweepSpec &
SweepSpec::axis(const std::string &name, std::vector<AxisValue> values)
{
    return axis(SweepAxis{name, std::move(values)});
}

SweepSpec &
SweepSpec::llcBanks(const std::vector<std::uint32_t> &counts)
{
    SweepAxis ax{"banks", {}};
    for (std::uint32_t n : counts)
        ax.values.push_back({std::to_string(n), [n](SweepPoint &p) {
                                 p.config.llcBanks = n;
                             }});
    return axis(std::move(ax));
}

SweepSpec &
SweepSpec::llcBankInterleaveShift(
    const std::vector<std::uint32_t> &shifts)
{
    SweepAxis ax{"shift", {}};
    for (std::uint32_t s : shifts)
        ax.values.push_back({std::to_string(s), [s](SweepPoint &p) {
                                 p.config.llcBankInterleaveShift = s;
                             }});
    return axis(std::move(ax));
}

SweepSpec &
SweepSpec::dramChannels(const std::vector<std::uint32_t> &channels)
{
    SweepAxis ax{"dramch", {}};
    for (std::uint32_t n : channels)
        ax.values.push_back({std::to_string(n), [n](SweepPoint &p) {
                                 p.config.dram.channels = n;
                             }});
    return axis(std::move(ax));
}

SweepSpec &
SweepSpec::llcSizeKb(const std::vector<std::uint64_t> &kb_per_core)
{
    SweepAxis ax{"llc_kb", {}};
    for (std::uint64_t kb : kb_per_core)
        ax.values.push_back({std::to_string(kb), [kb](SweepPoint &p) {
                                 p.config.llcBytesPerCore = kb * 1024;
                             }});
    return axis(std::move(ax));
}

SweepSpec &
SweepSpec::llcAssociativity(const std::vector<std::uint32_t> &ways)
{
    SweepAxis ax{"ways", {}};
    for (std::uint32_t w : ways)
        ax.values.push_back({std::to_string(w), [w](SweepPoint &p) {
                                 p.config.llcAssoc = w;
                             }});
    return axis(std::move(ax));
}

SweepSpec &
SweepSpec::coreCounts(const std::vector<std::uint32_t> &cores)
{
    SweepAxis ax{"cores", {}};
    for (std::uint32_t c : cores)
        ax.values.push_back({std::to_string(c), [c](SweepPoint &p) {
                                 p.config.numCores = c;
                             }});
    return axis(std::move(ax));
}

SweepSpec &
SweepSpec::policies(const std::vector<PolicyVariant> &variants)
{
    SweepAxis ax{"policy", {}};
    for (const PolicyVariant &v : variants) {
        PolicyKind kind = v.kind;
        bool gari = v.garibaldi;
        ax.values.push_back(
            {v.label, [kind, gari](SweepPoint &p) {
                 p.config = configWithPolicy(p.config, kind, gari);
             }});
    }
    return axis(std::move(ax));
}

SweepSpec &
SweepSpec::mixes(const std::vector<Mix> &ms)
{
    SweepAxis ax{"mix", {}};
    for (const Mix &m : ms)
        ax.values.push_back({m.name, [m](SweepPoint &p) {
                                 p.mix = m;
                             }});
    return axis(std::move(ax));
}

SweepSpec &
SweepSpec::randomServerMixes(std::uint64_t seed, int count)
{
    SweepAxis ax{"mix", {}};
    for (int i = 0; i < count; ++i) {
        std::uint64_t s = seed + static_cast<std::uint64_t>(i);
        ax.values.push_back(
            {"rnd" + std::to_string(i), [s](SweepPoint &p) {
                 p.mix = randomServerMix(s, p.config.numCores);
             }});
    }
    return axis(std::move(ax));
}

std::size_t
SweepSpec::jobCount() const
{
    std::size_t n = 1;
    for (const auto &ax : axes)
        n *= ax.values.size();
    return axes.empty() ? 0 : n;
}

std::vector<SweepJob>
SweepSpec::expand() const
{
    std::vector<SweepJob> jobs;
    if (axes.empty())
        return jobs;
    jobs.reserve(jobCount());

    std::vector<std::size_t> pick(axes.size(), 0);
    while (true) {
        SweepJob job;
        job.index = jobs.size();
        SweepPoint point{base, Mix{}};
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const AxisValue &v = axes[a].values[pick[a]];
            v.apply(point);
            job.coords.emplace_back(axes[a].name, v.label);
        }
        job.config = std::move(point.config);
        job.mix = std::move(point.mix);
        jobs.push_back(std::move(job));

        // Row-major increment: last axis varies fastest.
        std::size_t a = axes.size();
        while (a > 0) {
            --a;
            if (++pick[a] < axes[a].values.size())
                break;
            pick[a] = 0;
            if (a == 0)
                return jobs;
        }
    }
}

std::vector<PolicyVariant>
lruMockingjayLadder()
{
    return {
        {"lru", PolicyKind::LRU, false},
        {"mockingjay", PolicyKind::Mockingjay, false},
        {"mockingjay+g", PolicyKind::Mockingjay, true},
    };
}

AxisValue
configValue(std::string label, SystemConfig cfg)
{
    return {std::move(label), [cfg = std::move(cfg)](SweepPoint &p) {
                p.config = cfg;
            }};
}

void
appendJobs(std::vector<SweepJob> &jobs, std::vector<SweepJob> more)
{
    for (SweepJob &j : more) {
        j.index = jobs.size();
        jobs.push_back(std::move(j));
    }
}

} // namespace garibaldi
