#include "mem/llc_bank_set.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

LlcBankSet::LlcBankSet(const CacheParams &llc, std::uint32_t banks,
                       std::uint32_t interleave_shift)
    : interleaveShift(interleave_shift)
{
    if (banks == 0)
        fatal(llc.name, ": bank count must be non-zero");
    checkPowerOf2(banks, (llc.name + " bank count").c_str());
    if (llc.sizeBytes % banks != 0)
        fatal(llc.name, ": capacity (", llc.sizeBytes,
              " B) not divisible by ", banks, " banks");
    bankMask = banks - 1;

    std::uint32_t bank_bits = floorLog2(banks);
    std::uint64_t assigned_mshrs = 0;
    for (std::uint32_t b = 0; b < banks; ++b) {
        CacheParams p = llc;
        if (banks > 1)
            p.name = llc.name + ".b" + std::to_string(b);
        p.sizeBytes = llc.sizeBytes / banks;
        if (banks > 1) {
            // Distribute the whole-LLC MSHR budget: base share per bank
            // plus one of the remainder each to the first mshrs%banks
            // banks, so per-bank capacities sum to the configured total
            // (10 MSHRs over 4 banks = 3+3+2+2, not 4x2).  Every bank
            // keeps at least one MSHR even when banks > mshrs.
            std::uint32_t share = llc.mshrs / banks +
                                  (b < llc.mshrs % banks ? 1 : 0);
            p.mshrs = std::max<std::uint32_t>(1, share);
        }
        p.indexSkipShift = interleave_shift;
        p.indexSkipBits = bank_bits;
        assigned_mshrs += p.mshrs;
        // Only the contention model asks a bank whether its MSHRs are
        // full; its banks keep the table, whose answers at the shared,
        // non-monotone clock depend on query order.
        banks_.push_back(std::make_unique<Cache>(
            p, p.bankServiceCycles > 0 ? MshrBook::Table : MshrBook::Frame));
    }
    // The remainder-first split must conserve the whole-LLC budget
    // (modulo the every-bank-keeps-one clamp when banks > mshrs).
    audit::checkMshrBudgetSplit(llc.name.c_str(), llc.mshrs, banks,
                                assigned_mshrs);
}

void
LlcBankSet::setCompanion(LlcCompanion *companion)
{
    for (auto &b : banks_)
        b->setCompanion(companion);
}

CacheStats
LlcBankSet::stats() const
{
    CacheStats sum;
    for (const auto &b : banks_)
        sum.accumulate(b->stats());
    return sum;
}

} // namespace garibaldi
