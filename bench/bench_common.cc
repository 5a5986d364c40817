#include "bench/bench_common.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/audit.hh"
#include "common/logging.hh"

namespace garibaldi
{

void
BenchArgs::addTo(ArgParser &args, bool sweep)
{
    const BenchArgs d;
    args.addInt("cores", d.cores, "simulated cores");
    args.addInt("warmup", static_cast<std::int64_t>(d.warmup),
                "warmup instructions per core");
    args.addInt("instr", static_cast<std::int64_t>(d.detailed),
                "measured instructions per core");
    args.addInt("seed", static_cast<std::int64_t>(d.seed), "master seed");
    audit::addAuditArg(args);
    args.addFlag("full", "full workload set / paper-scale sweep");
    args.addFlag("csv", "emit CSV instead of aligned text");
    if (sweep) {
        args.addInt("jobs", d.jobs,
                    "parallel sweep worker threads (0 = all hardware "
                    "threads); results are identical for any value");
        args.addFlag("progress", "per-job sweep progress on stderr");
    }
}

BenchArgs
BenchArgs::from(const ArgParser &args, bool sweep)
{
    BenchArgs b;
    b.cores = static_cast<std::uint32_t>(
        args.getUnsigned("cores", std::numeric_limits<std::uint32_t>::max()));
    b.warmup = args.getUnsigned("warmup");
    b.detailed = args.getUnsigned("instr");
    // Rejected here, on the main thread before any header, rather than
    // by Simulator::run inside every sweep worker.
    if (b.detailed == 0)
        fatal("--instr must be non-zero: the measured window is what "
              "every reported number comes from");
    b.seed = args.getUnsigned("seed");
    audit::applyAuditArg(args);
    b.full = args.getFlag("full");
    b.csv = args.getFlag("csv");
    if (sweep) {
        b.jobs = static_cast<std::uint32_t>(
            args.getUnsigned("jobs",
                             std::numeric_limits<std::uint32_t>::max()));
        b.progress = args.getFlag("progress");
    }
    return b;
}

SystemConfig
BenchArgs::config() const
{
    SystemConfig cfg = defaultConfig(cores);
    cfg.seed = seed;
    return cfg;
}

SweepOptions
BenchArgs::sweepOptions() const
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = progress;
    return opts;
}

std::uint32_t
benchMixCount(const ArgParser &args, bool full, std::uint32_t full_min)
{
    // Capped at INT_MAX: SweepSpec::randomServerMixes takes an int.
    constexpr std::uint64_t kMaxMixes = std::numeric_limits<int>::max();
    std::uint64_t mixes = args.getUnsigned("mixes");
    if (mixes == 0 || mixes > kMaxMixes)
        fatal("--mixes must be between 1 and ", kMaxMixes, " (got ",
              mixes, ")");
    auto count = static_cast<std::uint32_t>(mixes);
    return full ? std::max(count, full_min) : count;
}

const std::string &
benchParts(const ArgParser &args, const std::string &accepted)
{
    const std::string &part = args.getString("part");
    if (part.empty() ||
        part.find_first_not_of(accepted) != std::string::npos)
        fatal("--part '", part, "' must be one or more of the letters '",
              accepted, "'");
    return part;
}

std::vector<std::string>
benchServerSet(bool full)
{
    if (full)
        return serverWorkloadNames();
    return {"smallbank", "tpcc", "voter", "kafka", "tomcat",
            "verilator"};
}

void
printBenchHeader(const std::string &artifact, const std::string &what,
                 const SystemConfig &cfg, const BenchArgs &args)
{
    std::printf("=== %s: %s ===\n", artifact.c_str(), what.c_str());
    std::printf("machine: %s | warmup %llu + detailed %llu instr/core"
                " | seed %llu%s\n\n",
                cfg.summary().c_str(),
                static_cast<unsigned long long>(args.warmup),
                static_cast<unsigned long long>(args.detailed),
                static_cast<unsigned long long>(args.seed),
                args.full ? " | FULL" : "");
}

void
emitTable(const TablePrinter &table, bool csv)
{
    std::printf("%s\n", (csv ? table.toCsv() : table.toText()).c_str());
}

} // namespace garibaldi
