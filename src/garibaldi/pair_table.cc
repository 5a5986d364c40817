#include "garibaldi/pair_table.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

const GaribaldiParams &
PairTable::validated(const GaribaldiParams &p)
{
    checkPowerOf2(p.pairTableEntries, "pair table entries");
    if (p.k > kMaxFields)
        fatal("pair table k (", p.k, ") exceeds the supported ",
              kMaxFields, " DL_PA fields");
    return p;
}

PairTable::PairTable(const GaribaldiParams &params_, DppnTable &dppn_)
    : params(validated(params_)), dppn(dppn_),
      numColors(1u << params_.colorBits),
      table(makeZeroedArray<Entry>(params_.pairTableEntries)),
      fields(makeZeroedArray<DlField>(std::size_t{params_.pairTableEntries} *
                                      params_.k))
{
}

std::size_t
PairTable::indexOf(Addr il_pa) const
{
    return static_cast<std::size_t>(mix64(lineNumber(il_pa))) &
           (params.pairTableEntries - 1);
}

unsigned
PairTable::agedCostOf(const Entry &e, unsigned color) const
{
    // One cost point decays per elapsed color step (§5.2 Fig. 9(c)).
    unsigned dist = colorDistance(e.color, color);
    return e.missCost > dist ? e.missCost - dist : 0;
}

void
PairTable::initEntry(Entry &e, DlField *f, Addr il_tag, unsigned color)
{
    e.ilTag = il_tag;
    e.missCost = static_cast<std::uint8_t>(
        std::min(params.missCostInit, kMissCostMax));
    e.color = static_cast<std::uint8_t>(color);
    e.valid = true;
    std::fill_n(f, params.k, DlField{}); // invalid, old bit armed
    ++nAllocs;
}

void
PairTable::armFields(DlField *f)
{
    for (unsigned i = 0; i < params.k; ++i)
        f[i].disarmed = false;
}

void
PairTable::refreshColor(Entry &e, DlField *f, unsigned color)
{
    if (e.color == color)
        return;
    // Lazy aging: fold the elapsed colors into the stored cost, then
    // stamp the entry with the current color.  A color change also
    // re-arms the old bits (Fig. 10(b)).
    e.missCost = static_cast<std::uint8_t>(agedCostOf(e, color));
    e.color = static_cast<std::uint8_t>(color);
    armFields(f);
}

bool
PairTable::fieldMatches(const DlField &f, Addr dppn_val,
                        unsigned dppo) const
{
    if (!f.valid || f.dppo != dppo)
        return false;
    auto stored = dppn.lookup(f.dppnIdx);
    return stored && *stored == dppn_val;
}

void
PairTable::updateFields(DlField *fs, Addr dl_pa)
{
    if (params.k == 0)
        return;
    Addr dppn_val = pageNumber(dl_pa);
    unsigned dppo = static_cast<unsigned>(lineInPage(dl_pa));

    // Rule 1: a matching field is reinforced and un-armed.
    for (unsigned i = 0; i < params.k; ++i) {
        DlField &f = fs[i];
        if (fieldMatches(f, dppn_val, dppo)) {
            if (f.sctr < kSctrMax)
                ++f.sctr;
            f.disarmed = true;
            return;
        }
    }

    // Rule 2: take the first armed (old-bit set or never-used) field;
    // when none is armed the access bypasses recording entirely.
    DlField *slot = nullptr;
    for (unsigned i = 0; i < params.k; ++i) {
        DlField &f = fs[i];
        if (!f.valid || !f.disarmed) {
            slot = &f;
            break;
        }
    }
    if (!slot) {
        ++nFieldBypasses;
        return;
    }

    if (slot->valid) {
        slot->disarmed = true;
        if (slot->sctr > 0)
            --slot->sctr;
        // Rule 3: replace only once the incumbent has decayed.
        if (slot->sctr >= kSctrReplaceThreshold)
            return;
    }

    auto idx = dppn.allocate(dppn_val);
    if (!idx)
        return; // frame not representable right now; keep incumbent
    slot->dppnIdx = *idx;
    slot->dppo = static_cast<std::uint8_t>(dppo);
    slot->sctr = static_cast<std::uint8_t>(kSctrReplaceThreshold);
    slot->disarmed = true;
    slot->valid = true;
    ++nFieldRecords;
}

void
PairTable::updateOnDataAccess(Addr il_pa, Addr dl_pa, bool data_hit,
                              unsigned color, unsigned threshold)
{
    ++nUpdates;
    std::size_t i = indexOf(il_pa);
    Entry &e = table[i];
    DlField *f = fieldsOf(i);
    Addr tag = lineNumber(il_pa);

    if (!e.valid) {
        initEntry(e, f, tag, color);
    } else if (e.ilTag != tag) {
        // Collision: the incumbent survives while its aged cost still
        // clears the threshold; the aged cost and color are folded in
        // (§5.2 "Replacement of Pair Table Entries").
        unsigned aged = agedCostOf(e, color);
        if (aged > threshold) {
            e.missCost = static_cast<std::uint8_t>(aged);
            if (e.color != color) {
                e.color = static_cast<std::uint8_t>(color);
                armFields(f);
            }
            ++nCollisionsPreserved;
            return;
        }
        ++nCollisionsReplaced;
        initEntry(e, f, tag, color);
    } else {
        refreshColor(e, f, color);
    }

    // Hot data propagates to the instruction's cost; cold data decays
    // it (Fig. 5(a)).
    if (data_hit) {
        if (e.missCost < kMissCostMax)
            ++e.missCost;
    } else if (e.missCost > 0) {
        --e.missCost;
    }

    updateFields(f, dl_pa);
}

void
PairTable::onInstrMiss(Addr il_pa)
{
    std::size_t i = indexOf(il_pa);
    const Entry &e = table[i];
    if (!e.valid || e.ilTag != lineNumber(il_pa))
        return;
    armFields(fieldsOf(i));
}

PairQueryResult
PairTable::query(Addr il_pa, unsigned color) const
{
    const Entry &e = table[indexOf(il_pa)];
    ++nQueries;
    if (!e.valid || e.ilTag != lineNumber(il_pa))
        return {};
    return {true, agedCostOf(e, color)};
}

void
PairTable::collectPrefetchCandidates(Addr il_pa,
                                     std::vector<Addr> &out) const
{
    std::size_t i = indexOf(il_pa);
    const Entry &e = table[i];
    if (!e.valid || e.ilTag != lineNumber(il_pa))
        return;
    const DlField *fs = fieldsOf(i);
    for (unsigned j = 0; j < params.k; ++j) {
        const DlField &f = fs[j];
        if (!f.valid)
            continue;
        auto frame = dppn.lookup(f.dppnIdx);
        if (!frame)
            continue;
        out.push_back((*frame << kPageShift) |
                      (Addr{f.dppo} << kLineShift));
    }
}

PairTable::DebugEntry
PairTable::debugEntry(Addr il_pa) const
{
    std::size_t i = indexOf(il_pa);
    const Entry &e = table[i];
    DebugEntry d;
    d.valid = e.valid;
    d.tagMatch = e.valid && e.ilTag == lineNumber(il_pa);
    d.missCost = e.missCost;
    d.color = e.color;
    // Fields past k do not exist; they read as unused and armed.
    for (auto &df : d.fields)
        df.oldBit = true;
    const DlField *fs = fieldsOf(i);
    for (unsigned j = 0; j < params.k; ++j) {
        const DlField &f = fs[j];
        d.fields[j].valid = f.valid;
        d.fields[j].oldBit = !f.disarmed;
        d.fields[j].sctr = f.sctr;
        if (f.valid) {
            auto frame = dppn.lookup(f.dppnIdx);
            if (frame)
                d.fields[j].dlpa = (*frame << kPageShift) |
                                   (Addr{f.dppo} << kLineShift);
        }
    }
    return d;
}

StatSet
PairTable::stats() const
{
    StatSet s;
    s.add("updates", static_cast<double>(nUpdates));
    s.add("allocations", static_cast<double>(nAllocs));
    s.add("collisions_preserved",
          static_cast<double>(nCollisionsPreserved));
    s.add("collisions_replaced",
          static_cast<double>(nCollisionsReplaced));
    s.add("queries", static_cast<double>(nQueries));
    s.add("field_records", static_cast<double>(nFieldRecords));
    s.add("field_bypasses", static_cast<double>(nFieldBypasses));
    return s;
}

} // namespace garibaldi
