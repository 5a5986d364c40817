#include "sim/monitors.hh"

#include <algorithm>

namespace garibaldi
{

ReuseDistanceMonitor::ReuseDistanceMonitor(std::uint32_t llc_sets,
                                           unsigned sample_shift)
    : numSets(llc_sets), sampleShift(sample_shift),
      stacks(llc_sets >= (1u << sample_shift)
                 ? llc_sets >> sample_shift : 1)
{
}

void
ReuseDistanceMonitor::observe(const MemAccess &acc, bool)
{
    Addr line = acc.lineAddr();
    std::uint32_t set =
        static_cast<std::uint32_t>(lineNumber(line)) & (numSets - 1);
    if (set & ((1u << sampleShift) - 1))
        return;

    std::vector<Addr> &stack = stacks[set >> sampleShift];
    auto it = std::find(stack.begin(), stack.end(), line);
    if (it != stack.end()) {
        // Stack distance == number of distinct lines touched in this
        // set since the previous access to `line`.
        std::uint64_t distance =
            static_cast<std::uint64_t>(it - stack.begin());
        if (acc.isInstr)
            instrDist.add(distance);
        else
            dataDist.add(distance);
        stack.erase(it);
    }
    stack.insert(stack.begin(), line);
    if (stack.size() > 512)
        stack.pop_back();
}

StatSet
ReuseDistanceMonitor::stats() const
{
    StatSet s;
    s.addGauge("instr_mean_distance", instrDist.mean());
    s.addGauge("data_mean_distance", dataDist.mean());
    // Percentiles of the cumulative histograms are gauges: windowing
    // keeps the end-of-window reading instead of differencing the
    // landmarks across snapshots.
    s.addGauge("instr_distance_p90",
               static_cast<double>(instrDist.percentile(0.9)));
    s.addGauge("data_distance_p90",
               static_cast<double>(dataDist.percentile(0.9)));
    s.add("instr_samples", static_cast<double>(instrDist.count()));
    s.add("data_samples", static_cast<double>(dataDist.count()));
    return s;
}

void
LineFrequencyMonitor::observe(const MemAccess &acc, bool)
{
    Addr line = lineNumber(acc.lineAddr());
    if (acc.isInstr) {
        ++instrCounts.ref(line);
        ++instrAccesses;
    } else {
        ++dataCounts.ref(line);
        ++dataAccesses;
    }
}

double
LineFrequencyMonitor::instrAccessesPerLine() const
{
    return instrCounts.size() == 0
        ? 0.0
        : static_cast<double>(instrAccesses) / instrCounts.size();
}

double
LineFrequencyMonitor::dataAccessesPerLine() const
{
    return dataCounts.size() == 0
        ? 0.0
        : static_cast<double>(dataAccesses) / dataCounts.size();
}

double
LineFrequencyMonitor::instrAccessRatio() const
{
    std::uint64_t total = instrAccesses + dataAccesses;
    return total ? static_cast<double>(instrAccesses) / total : 0.0;
}

StatSet
LineFrequencyMonitor::stats() const
{
    StatSet s;
    s.addGauge("instr_accesses_per_line", instrAccessesPerLine());
    s.addGauge("data_accesses_per_line", dataAccessesPerLine());
    s.addGauge("instr_access_ratio", instrAccessRatio());
    s.addGauge("distinct_instr_lines",
               static_cast<double>(instrCounts.size()));
    s.addGauge("distinct_data_lines",
               static_cast<double>(dataCounts.size()));
    return s;
}

void
PairingMonitor::observe(const MemAccess &acc, bool hit)
{
    if (acc.isInstr) {
        // Instruction accesses are keyed by their own virtual line.
        InstrLineStats &st = instrLines.ref(lineNumber(acc.pc));
        ++st.accesses;
        if (!hit)
            ++st.misses;
        return;
    }
    // Data access: attribute to the triggering instruction's line (the
    // PC travels with every request, §5.1).
    Addr il = lineNumber(acc.pc);
    InstrLineStats &st = instrLines.ref(il);
    if (hit)
        ++st.dataHits;
    else
        ++st.dataMisses;

    if (hit) {
        // Sharing degree: count distinct consecutive instruction lines
        // touching each hot data line (exact set tracking is too big;
        // consecutive-distinct is a faithful lower bound).
        SharerEntry &e = dataSharers.ref(lineNumber(acc.lineAddr()));
        if (e.count == 0) {
            e.last = il;
            e.count = 1;
        } else if (e.last != il) {
            e.last = il;
            ++e.count;
        }
    }
}

double
PairingMonitor::instrMissRateDataHot() const
{
    std::uint64_t acc = 0, miss = 0;
    instrLines.forEach([&](Addr, const InstrLineStats &st) {
        if (st.accesses == 0 || st.dataHits + st.dataMisses == 0)
            return;
        if (st.dataHits >= st.dataMisses) {
            acc += st.accesses;
            miss += st.misses;
        }
    });
    return acc ? static_cast<double>(miss) / acc : 0.0;
}

double
PairingMonitor::instrMissRateDataCold() const
{
    std::uint64_t acc = 0, miss = 0;
    instrLines.forEach([&](Addr, const InstrLineStats &st) {
        if (st.accesses == 0 || st.dataHits + st.dataMisses == 0)
            return;
        if (st.dataHits < st.dataMisses) {
            acc += st.accesses;
            miss += st.misses;
        }
    });
    return acc ? static_cast<double>(miss) / acc : 0.0;
}

double
PairingMonitor::dataSharingDegree() const
{
    if (dataSharers.size() == 0)
        return 0.0;
    std::uint64_t sum = 0;
    dataSharers.forEach(
        [&](Addr, const SharerEntry &e) { sum += e.count; });
    return static_cast<double>(sum) / dataSharers.size();
}

StatSet
PairingMonitor::stats() const
{
    StatSet s;
    s.addGauge("instr_missrate_datahot", instrMissRateDataHot());
    s.addGauge("instr_missrate_datacold", instrMissRateDataCold());
    s.addGauge("data_sharing_degree", dataSharingDegree());
    s.addGauge("tracked_instr_lines",
               static_cast<double>(instrLines.size()));
    return s;
}

} // namespace garibaldi
