/**
 * @file
 * The Garibaldi module facade (Fig. 6): glues the helper tables, the
 * main pair table, the D_PPN table and the threshold unit together and
 * implements the LLC companion hooks — allocate & update on every LLC
 * access, QBS-style selective instruction protection during victim
 * selection, and pairwise data prefetch during unprotected instruction
 * miss handling.
 *
 * With a banked LLC (LlcBankSet) one Garibaldi instance is shared by
 * all banks: each bank invokes the hooks for the lines it homes, so
 * insert/evict/query events interleave across banks while the tables
 * keep their global, whole-LLC view (the paper's single-module design).
 */

#ifndef GARIBALDI_GARIBALDI_GARIBALDI_HH
#define GARIBALDI_GARIBALDI_GARIBALDI_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "garibaldi/dppn_table.hh"
#include "garibaldi/helper_table.hh"
#include "garibaldi/pair_table.hh"
#include "garibaldi/params.hh"
#include "garibaldi/threshold_unit.hh"
#include "mem/llc_companion.hh"

namespace garibaldi
{

class Tracer;

/** The pairwise instruction-data management module. */
class Garibaldi : public LlcCompanion
{
  public:
    /**
     * @param params module configuration (Table 2 defaults)
     * @param num_cores cores sharing the LLC (helper table per core)
     */
    Garibaldi(const GaribaldiParams &params, std::uint32_t num_cores);

    // LlcCompanion interface.
    void observeAccess(const MemAccess &acc, bool hit,
                       Cycle now) override;
    bool shouldProtect(Addr victim_line_addr) override;
    void instrMissPrefetch(Addr instr_line_addr,
                           std::vector<Addr> &out) override;
    void observeInsert(Addr line_addr, bool is_instr,
                       bool prefetched) override;
    void observeEvict(Addr line_addr, bool is_instr) override;
    unsigned maxProtectAttempts() const override;
    Cycle queryCost() const override;

    /**
     * Aggregate module statistics (feeds the energy model too).
     * The threshold unit's live readings are added as gauges, so
     * windowing keeps their end-of-window values.
     */
    StatSet stats() const;

    PairTable &pairTable() { return pairs; }
    HelperTable &helperTable(CoreId core) { return *helpers.at(core); }
    const GaribaldiParams &config() const { return params; }

    /** Pair-table + helper-table touches (for the energy model). */
    std::uint64_t tableAccesses() const { return nTableAccesses; }

    /**
     * Attach the transaction tracer (obs/trace.hh) so pairing
     * decisions — protection grants/denials and pair-prefetch bursts —
     * surface as instant events in the trace timeline.  Null detaches;
     * unset (the default) costs one null-pointer branch per decision.
     */
    void setTracer(Tracer *t) { tracer = t; }

  private:
    GaribaldiParams params;
    DppnTable dppn;
    PairTable pairs;
    ThresholdUnit thresh;
    std::vector<std::unique_ptr<HelperTable>> helpers;

    Tracer *tracer = nullptr;
    /**
     * Timeline context for marker events: shouldProtect() and
     * instrMissPrefetch() carry no cycle/core, so observeAccess()
     * caches the most recent access's (now, core) — the decisions are
     * made while that very access is being serviced.  Only maintained
     * while a tracer is attached.
     */
    Cycle lastNow = 0;
    CoreId lastCore = 0;

    std::uint64_t nTableAccesses = 0;
    std::uint64_t nProtectionGrants = 0;
    std::uint64_t nProtectionDenials = 0;
    std::uint64_t nPrefetchesIssued = 0;
    std::uint64_t nPairedUpdates = 0;
    std::uint64_t nUnpairedData = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_GARIBALDI_GARIBALDI_HH
