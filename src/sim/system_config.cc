#include "sim/system_config.hh"

#include <sstream>

namespace garibaldi
{

HierarchyParams
SystemConfig::hierarchyParams() const
{
    HierarchyParams h;
    h.numCores = numCores;
    h.coresPerL2 = coresPerL2;

    h.l1i.name = "l1i";
    h.l1i.sizeBytes = l1iBytes;
    h.l1i.assoc = l1iAssocOverride ? l1iAssocOverride : l1Assoc;
    h.l1i.latency = l1Latency;
    h.l1i.mshrs = l1Mshrs;
    h.l1i.policy = PolicyKind::LRU;

    h.l1d = h.l1i;
    h.l1d.name = "l1d";
    h.l1d.sizeBytes = l1dBytes;
    h.l1d.assoc = l1Assoc;

    h.l2.name = "l2";
    h.l2.sizeBytes = l2Bytes;
    h.l2.assoc = l2Assoc;
    h.l2.latency = l2Latency;
    h.l2.mshrs = l2Mshrs;
    h.l2.policy = PolicyKind::LRU;

    h.llc.name = "llc";
    h.llc.sizeBytes = llcBytes();
    h.llc.assoc = llcAssoc;
    h.llc.latency = llcLatency;
    h.llc.mshrs = llcMshrs;
    h.llc.policy = llcPolicy;
    h.llc.policyParams = llcPolicyParams;
    h.llc.policyParams.seed = seed;
    h.llc.instrPartitionWays = llcInstrPartitionWays;
    h.llc.instrOracle = llcInstrOracle;
    h.llcBanks = llcBanks;
    h.llcBankInterleaveShift = llcBankInterleaveShift;
    h.llcBankServiceCycles = llcBankServiceCycles;
    h.llcBankPorts = llcBankPorts;

    h.dram = dram;
    h.dramFedLlcMshrs = dramFedLlcMshrs;
    return h;
}

std::string
SystemConfig::summary() const
{
    std::ostringstream os;
    os << numCores << " cores, LLC "
       << (llcBytes() / (1024.0 * 1024.0)) << " MB " << llcAssoc
       << "-way " << policyKindName(llcPolicy);
    if (llcBanks > 1)
        os << " x" << llcBanks << " banks";
    if (llcBankServiceCycles > 0)
        os << " bank-q(svc=" << llcBankServiceCycles << ",ports="
           << llcBankPorts << ")";
    // Printed only off the Table 1 defaults so historical bench
    // headers stay untouched.
    DramParams dflt{};
    if (dram.channels != dflt.channels || dramFedLlcMshrs ||
        dram.rowModelOn() || dram.turnaroundOn() ||
        dram.refreshIntervalCycles > 0) {
        os << " dram(ch=" << dram.channels;
        if (dram.rowModelOn())
            os << ",rowbits=" << dram.rowBits;
        if (dram.turnaroundOn())
            os << ",turn=" << dram.turnaroundCycles;
        if (dram.refreshIntervalCycles > 0)
            os << ",refresh=" << dram.refreshIntervalCycles << "/"
               << dram.refreshPenaltyCycles;
        if (dramFedLlcMshrs)
            os << ",fed-mshr";
        os << ")";
    }
    if (garibaldiEnabled)
        os << "+garibaldi(k=" << garibaldi.k << ")";
    if (llcInstrPartitionWays)
        os << " ipart=" << llcInstrPartitionWays;
    if (llcInstrOracle)
        os << " I-oracle";
    return os.str();
}

SystemConfig
defaultConfig(std::uint32_t cores)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    return cfg;
}

} // namespace garibaldi
