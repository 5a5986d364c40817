/**
 * @file
 * Table 2 reproduction: the storage overhead of every Garibaldi
 * structure, computed from the configured parameters, for both the
 * paper's 40-core machine and the scaled bench machine.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "garibaldi/storage.hh"

using namespace garibaldi;

namespace
{

void
printMachine(const char *label, std::uint32_t cores,
             std::uint64_t llc_bytes, std::uint64_t l2_total,
             const GaribaldiParams &params)
{
    StorageBreakdown b =
        computeStorage(params, cores, llc_bytes, l2_total);
    std::printf("--- %s (%u cores, %.1f MB LLC) ---\n", label, cores,
                llc_bytes / (1024.0 * 1024.0));
    std::printf("%s\n", b.toString().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Table 2: Garibaldi storage overheads");
    BenchArgs::addTo(args, /*sweep=*/false);
    args.parse(argc, argv);
    BenchArgs b = BenchArgs::from(args, /*sweep=*/false);

    printBenchHeader("Table 2", "storage overhead of the Garibaldi "
                                "structures",
                     b.config(), b);

    GaribaldiParams paper; // Table 2 defaults: 2^14 entries, k=1, 2^13
    // Paper machine: 40 cores, 30 MB LLC, ten 4 MB L2s.
    printMachine("paper machine (Table 2)", 40,
                 30ull * 1024 * 1024, 10ull * 4 * 1024 * 1024, paper);

    // Scaled bench machine.
    SystemConfig cfg = b.config();
    std::uint32_t clusters =
        (cfg.numCores + cfg.coresPerL2 - 1) / cfg.coresPerL2;
    printMachine("scaled bench machine", cfg.numCores, cfg.llcBytes(),
                 std::uint64_t{clusters} * cfg.l2Bytes, cfg.garibaldi);

    // Per-structure arithmetic, Table 2 style.
    StorageBreakdown d = computeStorage(paper, 40,
                                        30ull * 1024 * 1024,
                                        10ull * 4 * 1024 * 1024);
    TablePrinter t({"structure", "entries", "entry_bits", "size"});
    t.addRow({"main pair table", "16384",
              std::to_string(d.pairEntryBits) + "+" +
                  std::to_string(d.dlFieldBits) + "/field",
              TablePrinter::num(d.pairTableBytes / 1024.0, 1) + " KB"});
    t.addRow({"D_PPN table", "8192", std::to_string(d.dppnEntryBits),
              TablePrinter::num(d.dppnTableBytes / 1024.0, 1) + " KB"});
    t.addRow({"helper table (per core)", "128",
              std::to_string(d.helperEntryBits),
              TablePrinter::num(d.helperBytesPerCore / 1024.0, 1) +
                  " KB"});
    t.addRow({"total (40 cores)", "-", "-",
              TablePrinter::num(d.totalBytes / 1024.0, 1) + " KB"});
    emitTable(t, b.csv);

    std::printf("Paper reports 193.9 KB total for 40 cores (0.6%% of "
                "the LLC; 0.8%% with the per-line instruction bits).\n");
    return 0;
}
