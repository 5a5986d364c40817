/**
 * @file
 * Declared stat semantics: every name a module exports through
 * StatSet::add carries a machine-readable kind, and each kind fixes
 * the windowing rule (what Simulator::run / TelemetrySink do at a
 * window boundary).  The vocabulary:
 *
 *   counter            monotone event count.       window: subtract
 *   rate(num, den)     derived ratio of counters.  window: recompute
 *                      num/den are '+'-joined
 *                      sibling counter names,
 *                      resolved under the same
 *                      addAll prefix as the rate.
 *   gauge              point-in-time reading       window: keep-last
 *                      (threshold, color, ...).
 *   quantile           percentile landmark of a    window: keep-last
 *                      cumulative histogram.
 *   histogram_summary  derived summary (mean,      window: keep-last
 *                      imbalance) of internal
 *                      distribution state.
 *
 * Producers declare their exports once, next to the stats() method,
 * with a SIM_STATS block:
 *
 *   SIM_STATS(Dram,
 *       SIM_STAT("reads", counter),
 *       SIM_STAT("avg_queue_delay", rate("queued_cycles",
 *                                        "reads+writes")),
 *       SIM_STAT_GATED("row_hits", counter, "rowModelOn"));
 *
 * SIM_STAT_GATED names the feature flag under which the stat is
 * exported; with every knob off it must not appear.  Declared names
 * may contain '*' wildcards for dynamically composed families
 * ("lat.*.count", "lat.*_p95").
 *
 * sim/metrics.cc asks StatKindRegistry (never a hard-coded name list)
 * how to window each entry.  The StatContract test in
 * tests/sim_test.cc runs every producer with every gate on and off
 * and checks the declarations against what is actually exported.
 */

#ifndef GARIBALDI_COMMON_STAT_KIND_HH
#define GARIBALDI_COMMON_STAT_KIND_HH

#include <cstddef>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace garibaldi
{

enum class StatKind
{
    Counter,
    Rate,
    Gauge,
    Quantile,
    HistogramSummary,
};

/** What a window boundary does to a stat of a given kind. */
enum class WindowRule
{
    Subtract,  //!< after - before
    Recompute, //!< rebuild from the windowed raw counters
    KeepLast,  //!< report the end-of-window reading
};

WindowRule windowRuleOf(StatKind kind);
const char *statKindName(StatKind kind);

/** Kind plus the rate raws; built via the statkind:: vocabulary. */
struct StatSemantics
{
    StatKind kind;
    const char *num; //!< Rate only: '+'-joined sibling counter names
    const char *den; //!< Rate only: '+'-joined sibling counter names
};

namespace statkind
{

inline constexpr StatSemantics counter{StatKind::Counter, nullptr,
                                       nullptr};
inline constexpr StatSemantics gauge{StatKind::Gauge, nullptr, nullptr};
inline constexpr StatSemantics quantile{StatKind::Quantile, nullptr,
                                        nullptr};
inline constexpr StatSemantics histogram_summary{
    StatKind::HistogramSummary, nullptr, nullptr};

constexpr StatSemantics
rate(const char *num, const char *den)
{
    return StatSemantics{StatKind::Rate, num, den};
}

} // namespace statkind

/** One declared export: name (may hold '*'), semantics, gate token. */
struct StatDecl
{
    const char *name;
    StatSemantics sem;
    const char *gate; //!< feature-flag token, nullptr when unconditional
};

/**
 * Process-wide name -> semantics table, populated before main() by the
 * const SIM_STATS registrars and read-only afterwards.  Exported names
 * reach windowing with addAll prefixes attached ("llc.hit_rate",
 * "dram.row_hit_rate"), so resolution is exact match first, then the
 * longest declared name that is a '.'-boundary suffix of the query,
 * then the first wildcard declaration matching the query or one of
 * its '.'-boundary suffixes.
 */
class StatKindRegistry
{
  public:
    static const StatKindRegistry &instance();

    /**
     * Declaration governing @p name, or nullptr when no declared name
     * matches.
     */
    const StatDecl *resolve(const std::string &name) const;

    /**
     * Windowing rule for @p name.  Undeclared names (test-synthesized
     * sets) fall back to the naming convention: a canonical quantile
     * suffix keeps its end-of-window reading, everything else
     * subtracts — exactly the pre-registry behavior.
     */
    WindowRule windowRule(const std::string &name) const;

    /** True when @p name windows as a percentile gauge. */
    bool isQuantile(const std::string &name) const;

    /** Declared non-wildcard names, keyed by name. */
    const std::map<std::string, StatDecl> &declarations() const
    {
        return decls;
    }

    /**
     * The canonical quantile suffix set ({_p50, _p90, _p95, _p99} —
     * every landmark QuantileSummary exports), null-terminated.  The
     * undeclared-name fallback and the StatContract suffix/kind check
     * both key off this one table.
     */
    static const char *const *quantileSuffixes();

  private:
    friend class StatDomainRegistrar;
    static StatKindRegistry &mutableInstance();

    std::map<std::string, StatDecl> decls;
    std::vector<StatDecl> wilds;
};

/** Registers one producer's SIM_STATS block during static init. */
class StatDomainRegistrar
{
  public:
    StatDomainRegistrar(const char *producer,
                        std::initializer_list<StatDecl> decls);
};

// clang-format off
#define SIM_STAT(name, kind) \
    ::garibaldi::StatDecl{name, ::garibaldi::statkind::kind, nullptr}
#define SIM_STAT_GATED(name, kind, gate) \
    ::garibaldi::StatDecl{name, ::garibaldi::statkind::kind, gate}
#define SIM_STATS(producer, ...) \
    static const ::garibaldi::StatDomainRegistrar \
        kStatDomain_##producer{#producer, {__VA_ARGS__}}
// clang-format on

} // namespace garibaldi

#endif // GARIBALDI_COMMON_STAT_KIND_HH
