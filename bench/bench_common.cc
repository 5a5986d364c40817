#include "bench/bench_common.hh"

#include <cstdio>

#include "common/audit.hh"

namespace garibaldi
{

void
BenchArgs::addTo(ArgParser &args)
{
    args.addInt("cores", 8, "simulated cores");
    args.addInt("warmup", 150000, "warmup instructions per core");
    args.addInt("instr", 300000, "measured instructions per core");
    args.addInt("seed", 1, "master seed");
    args.addInt("llc-banks", 1,
                "LLC bank count (power of two; 1 = monolithic)");
    args.addInt("jobs", 0,
                "parallel sweep worker threads (0 = all hardware "
                "threads); results are identical for any value");
    audit::addAuditArg(args);
    args.addFlag("full", "full workload set / paper-scale sweep");
    args.addFlag("csv", "emit CSV instead of aligned text");
    args.addFlag("progress", "per-job sweep progress on stderr");
}

BenchArgs
BenchArgs::from(const ArgParser &args)
{
    BenchArgs b;
    b.cores = static_cast<std::uint32_t>(args.getUnsigned("cores"));
    b.warmup = args.getUnsigned("warmup");
    b.detailed = args.getUnsigned("instr");
    b.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    b.llcBanks = static_cast<std::uint32_t>(args.getUnsigned("llc-banks"));
    b.jobs = static_cast<std::uint32_t>(args.getUnsigned("jobs"));
    audit::applyAuditArg(args);
    b.full = args.getFlag("full");
    b.csv = args.getFlag("csv");
    b.progress = args.getFlag("progress");
    return b;
}

SystemConfig
BenchArgs::config() const
{
    SystemConfig cfg = defaultConfig(cores);
    cfg.seed = seed;
    cfg.llcBanks = llcBanks;
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
