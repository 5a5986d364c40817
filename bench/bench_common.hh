/**
 * @file
 * Shared scaffolding for the figure/table reproduction benches: common
 * CLI flags (cores, window sizes, --jobs, --full, --csv), representative
 * workload subsets for the sweep figures, and header printing.
 */

#ifndef GARIBALDI_BENCH_BENCH_COMMON_HH
#define GARIBALDI_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/table_printer.hh"
#include "sim/experiment.hh"
#include "sweep/sweep_runner.hh"
#include "workloads/catalog.hh"

namespace garibaldi
{

/** Parsed common bench options. */
struct BenchArgs
{
    std::uint32_t cores = 8;
    std::uint64_t warmup = 100000;
    std::uint64_t detailed = 200000;
    std::uint64_t seed = 1;
    std::uint32_t llcBanks = 1;
    std::uint32_t jobs = 0; //!< sweep workers; 0 = hardware threads
    bool full = false;
    bool csv = false;
    bool progress = false;

    /** Register the common flags on @p args. */
    static void addTo(ArgParser &args);

    /** Extract the common flags after parsing. */
    static BenchArgs from(const ArgParser &args);

    /** Base machine configuration for these settings. */
    SystemConfig config() const;

    /** Sweep execution options for these settings. */
    SweepOptions sweepOptions() const;
};

/**
 * The bench's --mixes count (each bench registers it with its own
 * default).  A count outside 1..INT_MAX exits 1 before any output;
 * --full raises the count to at least @p full_min.
 */
std::uint32_t benchMixCount(const ArgParser &args, bool full,
                            std::uint32_t full_min);

/**
 * The bench's --part letters.  At least one letter must be given and
 * each must be one of @p accepted; anything else exits 1 with a
 * message naming the accepted letters.
 */
const std::string &benchParts(const ArgParser &args,
                              const std::string &accepted);

/**
 * Server workloads for sweep benches: a 6-workload representative
 * subset by default (spanning best case, negative case and the middle
 * of Fig. 12), all 16 with --full.
 */
std::vector<std::string> benchServerSet(bool full);

/** Print the standard bench header. */
void printBenchHeader(const std::string &artifact,
                      const std::string &what, const SystemConfig &cfg,
                      const BenchArgs &args);

/** Emit a finished table in the selected format. */
void emitTable(const TablePrinter &table, bool csv);

} // namespace garibaldi

#endif // GARIBALDI_BENCH_BENCH_COMMON_HH
