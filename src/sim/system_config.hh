/**
 * @file
 * System configuration: Table 1 of the paper, scaled to a default of 8
 * cores while preserving the per-core cache shares (0.75 MB LLC/core,
 * 4 MB L2 per 4-core cluster) that produce instruction victims.
 */

#ifndef GARIBALDI_SIM_SYSTEM_CONFIG_HH
#define GARIBALDI_SIM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/core_model.hh"
#include "garibaldi/params.hh"
#include "mem/hierarchy.hh"
#include "obs/obs_config.hh"

namespace garibaldi
{

/** Everything needed to assemble a System. */
struct SystemConfig
{
    std::uint32_t numCores = 8;
    std::uint32_t coresPerL2 = 4;

    CoreParams core{};

    // L1 (Table 1: 64 KB L1I / 32 KB L1D, 8-way, 3 cycles).
    std::uint64_t l1iBytes = 64 * 1024;
    std::uint64_t l1dBytes = 32 * 1024;
    std::uint32_t l1Assoc = 8;
    /** Override the L1I associativity alone (0 = use l1Assoc). */
    std::uint32_t l1iAssocOverride = 0;
    Cycle l1Latency = 3;
    std::uint32_t l1Mshrs = 10;

    // L2 per 4-core cluster (Table 1: 4 MB, 16-way, 18 cycles; scaled
    // to 1 MB here).  The synthetic server workloads carry ~0.5 MB of
    // code per core (workloads/catalog.cc): a 1 MB per-core L2 share
    // would hold it and the LLC would see no instruction misses, while
    // a 0.25 MB share overflows into the LLC as the paper's servers do.
    std::uint64_t l2Bytes = 1 * 1024 * 1024;
    std::uint32_t l2Assoc = 16;
    Cycle l2Latency = 18;
    std::uint32_t l2Mshrs = 64;

    // Shared LLC (Table 1: 0.75 MB/core, 12-way, 40 cycles).
    std::uint64_t llcBytesPerCore = 768 * 1024;
    std::uint32_t llcAssoc = 12;
    Cycle llcLatency = 40;
    std::uint32_t llcMshrs = 192;
    PolicyKind llcPolicy = PolicyKind::LRU;
    PolicyParams llcPolicyParams{
        .counterBits = 5,   // 5-bit ETR/RRPV (§6)
        .sampleShift = 2,   // denser sampling: scaled windows train fast
        .seed = 1,
    };

    // Fig. 14(d)/3(d) LLC modes.
    std::uint32_t llcInstrPartitionWays = 0;
    bool llcInstrOracle = false;

    /**
     * LLC banking: address-interleaved bank count (power of two).  One
     * bank reproduces the monolithic seed LLC exactly; more banks model
     * a sharded shared LLC (bank-count/interleave sensitivity studies).
     */
    std::uint32_t llcBanks = 1;
    /** Line-number bit where bank interleaving starts (0 = per-line). */
    std::uint32_t llcBankInterleaveShift = 0;
    /**
     * Per-bank queuing/contention model.  When llcBankServiceCycles is
     * non-zero each LLC bank access occupies one of llcBankPorts
     * tag-array slots (hits and fills additionally a data-array slot)
     * for that many cycles; accesses finding their bank busy queue and
     * the wait adds to load-to-use latency, and LLC MSHR pressure is
     * charged against the owning bank.  Zero (default) keeps every
     * output bit-identical to the contention-free model.
     */
    Cycle llcBankServiceCycles = 0;
    std::uint32_t llcBankPorts = 1;

    // Garibaldi attachment.
    bool garibaldiEnabled = false;
    GaribaldiParams garibaldi{};

    /**
     * DRAM geometry and timing (mem/dram.hh): channels plus the opt-in
     * first-order DDR5 timing legs — rowBits (row-buffer
     * hit/miss/conflict split), turnaroundCycles (read<->write bus
     * turnaround) and refreshIntervalCycles/refreshPenaltyCycles
     * (tREFI/tRFC blocking).  All timing legs default 0 = off, keeping
     * output byte-identical to the flat-latency model.
     */
    DramParams dram{};
    /**
     * Hold each LLC miss's bank MSHR entry until the DRAM channel's
     * fill completion instant (plus the array write) instead of the
     * legacy request-path latency sum, so memory backpressure sets
     * MSHR residency.  Default off = legacy book (byte-identical
     * whenever the bank contention model is off).
     */
    bool dramFedLlcMshrs = false;

    /**
     * Observability (src/obs): transaction tracing, telemetry windows
     * and latency-leg histograms.  All knobs default off = the System
     * builds no ObsSubsystem and every output stays byte-identical.
     */
    ObsConfig obs{};

    /** Master seed; all per-core seeds derive from it. */
    std::uint64_t seed = 1;

    /** Total LLC capacity. */
    std::uint64_t
    llcBytes() const
    {
        return std::uint64_t{llcBytesPerCore} * numCores;
    }

    /** Build the hierarchy parameter block. */
    HierarchyParams hierarchyParams() const;

    /** One-line description for bench headers. */
    std::string summary() const;
};

/** The scaled Table 1 default configuration. */
SystemConfig defaultConfig(std::uint32_t cores = 8);

} // namespace garibaldi

#endif // GARIBALDI_SIM_SYSTEM_CONFIG_HH
