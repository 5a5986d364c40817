#include "garibaldi/helper_table.hh"

#include "common/intmath.hh"
#include "common/logging.hh"
#include "garibaldi/params.hh"

namespace garibaldi
{

HelperTable::HelperTable(std::uint32_t entries, std::uint32_t assoc_)
    : assoc(assoc_)
{
    if (entries == 0 || assoc_ == 0 || entries % assoc_ != 0)
        fatal("helper table geometry invalid: ", entries, "/", assoc_);
    numSets = entries / assoc_;
    entriesArr.resize(entries);
}

std::uint32_t
HelperTable::setOf(Addr vpn) const
{
    return static_cast<std::uint32_t>(mix64(vpn) % numSets);
}

HelperTable::Entry *
HelperTable::findEntry(Addr vpn)
{
    Entry *base = &entriesArr[std::size_t{setOf(vpn)} * assoc];
    for (std::uint32_t w = 0; w < assoc; ++w)
        if (base[w].valid && base[w].vpn == vpn)
            return &base[w];
    return nullptr;
}

void
HelperTable::record(Addr pc_vpn, Addr instr_ppn)
{
    ++nRecords;
    if (Entry *e = findEntry(pc_vpn)) {
        e->ppn = instr_ppn;
        if (e->sctr < kSctrMax)
            ++e->sctr;
        return;
    }
    // Victim: invalid way first, else lowest sctr.  Conflict pressure
    // ages the survivors so stale hot entries cannot squat forever.
    Entry *base = &entriesArr[std::size_t{setOf(pc_vpn)} * assoc];
    Entry *victim = base;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].sctr < victim->sctr)
            victim = &base[w];
    }
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (base[w].valid && &base[w] != victim && base[w].sctr > 0)
            --base[w].sctr;
    }
    victim->vpn = pc_vpn;
    victim->ppn = instr_ppn;
    victim->sctr = 1;
    victim->valid = true;
}

std::optional<Addr>
HelperTable::lookup(Addr pc_vpn)
{
    if (Entry *e = findEntry(pc_vpn)) {
        if (e->sctr < kSctrMax)
            ++e->sctr;
        ++nHits;
        return e->ppn;
    }
    ++nMisses;
    return std::nullopt;
}

StatSet
HelperTable::stats() const
{
    StatSet s;
    s.add("records", static_cast<double>(nRecords));
    s.add("hits", static_cast<double>(nHits));
    s.add("misses", static_cast<double>(nMisses));
    s.addRate("coverage", "hits", {"hits", "misses"});
    return s;
}

} // namespace garibaldi
