#include "garibaldi/garibaldi.hh"

#include "obs/trace.hh"

namespace garibaldi
{

Garibaldi::Garibaldi(const GaribaldiParams &params_,
                     std::uint32_t num_cores)
    : params(params_),
      dppn(params_.dppnEntries),
      pairs(params_, dppn),
      thresh(params_, num_cores)
{
    for (std::uint32_t c = 0; c < num_cores; ++c)
        helpers.push_back(std::make_unique<HelperTable>(
            kHelperEntries, kHelperAssoc));
}

void
Garibaldi::observeAccess(const MemAccess &acc, bool hit, Cycle now)
{
    if (tracer) {
        // Cache the timeline context so the decision hooks below —
        // which carry no cycle/core of their own — can stamp their
        // marker events with the access being serviced.
        lastNow = now;
        lastCore = acc.core;
    }
    thresh.onLlcAccess(hit);

    if (acc.isInstr) {
        // Instruction access: record PC-page -> instruction-frame in the
        // requester's helper table (Fig. 7 step 1).  Prefetched fetches
        // follow the normal translation path too (§5.3), so both demand
        // and prefetch instruction fetches land here.
        helpers[acc.core]->record(pageNumber(acc.pc),
                                  pageNumber(acc.paddr));
        ++nTableAccesses;
        if (!hit) {
            thresh.onInstrMiss(acc.core, acc.pc);
            pairs.onInstrMiss(acc.lineAddr());
        }
        return;
    }

    // Data access: deduce the triggering instruction line from the PC
    // via the helper table (Fig. 7 steps 2-3) and update the pair.
    thresh.onDataAccess(acc.core, acc.pc, hit);
    auto ppn = helpers[acc.core]->lookup(pageNumber(acc.pc));
    ++nTableAccesses;
    if (!ppn) {
        ++nUnpairedData;
        return;
    }
    Addr il_pa = HelperTable::deduceIlpa(*ppn, acc.pc);
    pairs.updateOnDataAccess(il_pa, acc.lineAddr(), hit, thresh.color(),
                             thresh.threshold());
    ++nPairedUpdates;
    ++nTableAccesses;
}

bool
Garibaldi::shouldProtect(Addr victim_line_addr)
{
    if (!params.protectionEnabled)
        return false;
    ++nTableAccesses;
    PairQueryResult q = pairs.query(victim_line_addr, thresh.color());
    bool grant = q.found && q.agedCost > thresh.threshold();
    if (grant)
        ++nProtectionGrants;
    else
        ++nProtectionDenials;
    if (tracer)
        tracer->onMarker(grant ? MarkerKind::ProtectGrant
                               : MarkerKind::ProtectDeny,
                         lastCore, lastNow, victim_line_addr,
                         q.found ? q.agedCost : 0);
    return grant;
}

void
Garibaldi::instrMissPrefetch(Addr instr_line_addr, std::vector<Addr> &out)
{
    if (!params.prefetchEnabled || params.k == 0)
        return;
    ++nTableAccesses;
    // Only *unprotected* instruction misses trigger the pair-wise data
    // prefetch (§4.3): a protected line missing anyway means the pair
    // table believes its data is hot and cached already.
    PairQueryResult q = pairs.query(instr_line_addr, thresh.color());
    if (!q.found || q.agedCost > thresh.threshold())
        return;
    std::size_t before = out.size();
    pairs.collectPrefetchCandidates(instr_line_addr, out);
    nPrefetchesIssued += out.size() - before;
    if (tracer && out.size() > before)
        tracer->onMarker(MarkerKind::PairPrefetch, lastCore, lastNow,
                         instr_line_addr,
                         static_cast<std::uint64_t>(out.size() -
                                                    before));
}

void
Garibaldi::observeInsert(Addr, bool, bool)
{
    // Prefetched lines are integrated at query time via their physical
    // address (§5.3); no insert-time bookkeeping is needed.
}

void
Garibaldi::observeEvict(Addr, bool)
{
    // Pair-table entries deliberately outlive LLC residency: the table
    // is what lets a re-fetched instruction line find its paired data.
}

unsigned
Garibaldi::maxProtectAttempts() const
{
    return params.qbsMaxAttempts;
}

Cycle
Garibaldi::queryCost() const
{
    return kQbsLookupCost;
}

StatSet
Garibaldi::stats() const
{
    StatSet s;
    s.add("protection_grants", static_cast<double>(nProtectionGrants));
    s.add("protection_denials", static_cast<double>(nProtectionDenials));
    s.add("pair_prefetches", static_cast<double>(nPrefetchesIssued));
    s.add("paired_updates", static_cast<double>(nPairedUpdates));
    s.add("unpaired_data", static_cast<double>(nUnpairedData));
    s.add("table_accesses", static_cast<double>(nTableAccesses));
    s.addAll("pair_table.", pairs.stats());
    s.addAll("dppn.", dppn.stats());
    s.addAll("threshold.", thresh.stats());
    double hits = 0, misses = 0;
    for (const auto &h : helpers) {
        // determinism-lint: allow(float-counter) fixed-order sum into the double-typed StatSet surface
        hits += static_cast<double>(h->hits());
        misses += static_cast<double>(h->misses());
    }
    s.add("helper.hits", hits);
    s.add("helper.misses", misses);
    s.addRate("helper.coverage", "helper.hits",
              {"helper.hits", "helper.misses"});
    return s;
}

} // namespace garibaldi
