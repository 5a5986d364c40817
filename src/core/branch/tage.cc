#include "core/branch/tage.hh"

#include "common/audit.hh"
#include "common/intmath.hh"

namespace garibaldi
{

constexpr std::array<unsigned, TagePredictor::kNumTables>
    TagePredictor::kHistLen;

TagePredictor::TagePredictor()
    : base(kBaseSize, kBaseWeakNotTaken),
      btb(makeZeroedArray<BtbEntry>(kBtbSize))
{
    for (auto &t : tables)
        t = makeZeroedArray<TaggedEntry>(kTableSize);
}

namespace
{

void
saturatingIncrement(std::uint8_t &c, std::uint8_t max)
{
    if (c < max)
        ++c;
}

void
saturatingDecrement(std::uint8_t &c)
{
    if (c > 0)
        --c;
}

} // namespace

std::size_t
TagePredictor::baseIndex(Addr pc) const
{
    return static_cast<std::size_t>(pc >> 2) & (kBaseSize - 1);
}

std::uint64_t
TagePredictor::foldedHistory(unsigned bits) const
{
    std::uint64_t h = bits >= 64 ? history
                                 : history & ((std::uint64_t{1} << bits)
                                              - 1);
    // Fold to 16 bits.
    std::uint64_t folded = 0;
    while (h) {
        folded ^= h & 0xffff;
        h >>= 16;
    }
    return folded;
}

TagePredictor::Lookup
TagePredictor::lookup(Addr pc) const
{
    Lookup l;
    for (unsigned t = 0; t < kNumTables; ++t) {
        std::uint64_t h = foldedHistory(kHistLen[t]);
        l.idx[t] = static_cast<std::size_t>(
                       mix64((pc >> 2) ^ (h << 1) ^ t)) & (kTableSize - 1);
        // Bit 8 is always set, so a real tag is never 0 (invalid).
        l.tag[t] = static_cast<std::uint16_t>(
            (mix64((pc >> 2) * 0x9e3779b1 ^ h ^ (t << 8)) & 0xff) | 0x100);
    }
    l.provider = -1;
    for (int t = kNumTables - 1; t >= 0; --t) {
        if (tables[t][l.idx[t]].tag == l.tag[t]) {
            l.provider = t;
            break;
        }
    }
    return l;
}

bool
TagePredictor::predicted(const Lookup &l, Addr pc) const
{
    if (l.provider >= 0)
        return tables[l.provider][l.idx[l.provider]].ctr >
               kCtrWeakNotTaken;
    return base[baseIndex(pc)] > kBaseWeakNotTaken;
}

bool
TagePredictor::resolve(Addr pc, bool taken)
{
    ++nLookups;
    return train(lookup(pc), pc, taken);
}

bool
TagePredictor::train(const Lookup &l, Addr pc, bool taken)
{
    bool prediction = predicted(l, pc);
    if (l.provider >= 0) {
        TaggedEntry &e = tables[l.provider][l.idx[l.provider]];
        if (prediction == taken)
            saturatingIncrement(e.useful, kUsefulMax);
        else
            saturatingDecrement(e.useful);
        if (taken)
            saturatingIncrement(e.ctr, kCtrMax);
        else
            saturatingDecrement(e.ctr);
    } else {
        std::uint8_t &c = base[baseIndex(pc)];
        if (taken)
            saturatingIncrement(c, kBaseMax);
        else
            saturatingDecrement(c);
    }

    if (prediction == taken) {
        ++nCorrect;
    } else if (l.provider < static_cast<int>(kNumTables) - 1) {
        // Allocate in a longer-history table with a non-useful entry.
        for (unsigned t = l.provider + 1; t < kNumTables; ++t) {
            TaggedEntry &e = tables[t][l.idx[t]];
            if (e.tag == 0 || e.useful == 0) {
                e.tag = l.tag[t];
                e.ctr = static_cast<std::uint8_t>(
                    taken ? kCtrWeakNotTaken + 1 : kCtrWeakNotTaken);
                e.useful = 0;
                ++nAllocs;
                break;
            }
            saturatingDecrement(e.useful);
        }
    }

    history = (history << 1) | (taken ? 1 : 0);
    return prediction;
}

Addr
TagePredictor::predictIndirect(Addr pc)
{
    ++nIndirect;
    const BtbEntry &e =
        btb[static_cast<std::size_t>(mix64(pc ^ (history & 0xf))) &
            (kBtbSize - 1)];
    // An empty entry's target is 0, the "no prediction" answer.
    return e.pc == pc ? e.target : 0;
}

void
TagePredictor::updateIndirect(Addr pc, Addr target)
{
    SIM_ASSERT(pc != 0, "tage: indirect branch at pc 0 would read as an "
               "empty BTB entry");
    BtbEntry &e =
        btb[static_cast<std::size_t>(mix64(pc ^ (history & 0xf))) &
            (kBtbSize - 1)];
    if (e.pc == pc && e.target == target)
        ++nIndirectCorrect;
    e.pc = pc;
    e.target = target;
    history = (history << 1) | 1;
}

StatSet
TagePredictor::stats() const
{
    StatSet s;
    s.add("lookups", static_cast<double>(nLookups));
    s.add("correct", static_cast<double>(nCorrect));
    s.addRate("accuracy", "correct", {"lookups"});
    s.add("allocations", static_cast<double>(nAllocs));
    s.add("indirect_lookups", static_cast<double>(nIndirect));
    s.add("indirect_correct", static_cast<double>(nIndirectCorrect));
    return s;
}

} // namespace garibaldi
