#include "garibaldi/storage.hh"

#include <sstream>

#include "common/intmath.hh"
#include "common/types.hh"

namespace garibaldi
{

StorageBreakdown
computeStorage(const GaribaldiParams &params, std::uint32_t num_cores,
               std::uint64_t llc_bytes, std::uint64_t l2_bytes_total)
{
    StorageBreakdown b;

    // Main pair table entry (Table 2): IL_PA tag + miss_cost + coloring
    // + valid.  The tag needs the line-number bits not implied by the
    // direct-mapped index.
    unsigned index_bits = floorLog2(params.pairTableEntries);
    unsigned line_bits = kPhysAddrBits - kLineShift; // 38
    unsigned tag_bits = line_bits > index_bits ? line_bits - index_bits
                                               : 1;
    b.pairEntryBits = tag_bits + kMissCostBits + params.colorBits
                      + 1;

    // DL_PA field: D_PPO (6 b) + D_PPN index + old bit + sctr.
    unsigned dppn_idx_bits = floorLog2(params.dppnEntries);
    b.dlFieldBits = (kPageShift - kLineShift) + dppn_idx_bits + 1 +
                    kSctrBits;

    b.pairTableBytes = divCeil(
        std::uint64_t{params.pairTableEntries} *
            (b.pairEntryBits + params.k * b.dlFieldBits), 8);

    // D_PPN table (tagless): stored frame bits are the frame number
    // minus the bits covered by the index, + sctr + valid.
    unsigned frame_bits = kPhysAddrBits - kPageShift; // 32
    unsigned stored_frame_bits = frame_bits > dppn_idx_bits
        ? frame_bits - dppn_idx_bits : 1;
    b.dppnEntryBits = stored_frame_bits + kSctrBits + 1;
    b.dppnTableBytes = divCeil(
        std::uint64_t{params.dppnEntries} * b.dppnEntryBits, 8);

    // Helper table entry (Table 2): VPPN (29 b, truncated virtual page
    // number) + PPPN + valid + sctr.
    unsigned vppn_bits = 29;
    unsigned pppn_bits = frame_bits;
    b.helperEntryBits = vppn_bits + pppn_bits + 1 + kSctrBits;
    b.helperBytesPerCore = divCeil(
        std::uint64_t{kHelperEntries} * b.helperEntryBits, 8);

    b.totalBytes = b.pairTableBytes + b.dppnTableBytes +
                   b.helperBytesPerCore * num_cores;

    // 1-bit instruction indicator per L2 and LLC block (§4.2).
    b.instrBitBytes = divCeil((llc_bytes + l2_bytes_total) / kLineBytes,
                              8);

    if (llc_bytes) {
        b.fractionOfLlc = static_cast<double>(b.totalBytes) / llc_bytes;
        b.fractionWithInstrBit =
            static_cast<double>(b.totalBytes + b.instrBitBytes) /
            llc_bytes;
    }
    return b;
}

std::string
StorageBreakdown::toString() const
{
    std::ostringstream os;
    auto kb = [](std::uint64_t bytes) {
        return static_cast<double>(bytes) / 1024.0;
    };
    os << "Main pair table : entry " << pairEntryBits
       << "b + DL_PA field " << dlFieldBits << "b => " << kb(pairTableBytes)
       << " KB\n";
    os << "D_PPN table     : entry " << dppnEntryBits << "b => "
       << kb(dppnTableBytes) << " KB\n";
    os << "Helper table    : entry " << helperEntryBits << "b => "
       << kb(helperBytesPerCore) << " KB per core\n";
    os << "Total           : " << kb(totalBytes) << " KB ("
       << fractionOfLlc * 100.0 << "% of LLC)\n";
    os << "w/ instr bits   : " << kb(totalBytes + instrBitBytes)
       << " KB (" << fractionWithInstrBit * 100.0 << "% of LLC)\n";
    return os.str();
}

} // namespace garibaldi
