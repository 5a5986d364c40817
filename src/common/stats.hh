/**
 * @file
 * Lightweight named-statistics registry.  Modules keep plain uint64_t
 * members for hot-path counting and export them through a StatSet for
 * uniform dumping in tests, examples and benches.
 *
 * Each entry carries its window rule, set by the call that adds it:
 *
 *   s.add("reads", reads);                    // counter: subtract
 *   s.addGauge("threshold", threshold);       // reading: keep last
 *   s.addRate("avg_queue_delay", "queued_cycles", {"reads", "writes"});
 *
 * sim/metrics.hh windowedStatDelta applies the rules at a window
 * boundary; there is no name-based lookup of how a stat windows.
 */

#ifndef GARIBALDI_COMMON_STATS_HH
#define GARIBALDI_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace garibaldi
{

/**
 * @p numerator / @p denominator, 0 when the denominator is not
 * positive.  Derived rates (hit rate, coverage, average queue delay,
 * ...) must be computed with this from *summed* raw counters — never by
 * averaging or subtracting per-bank / per-window rates, which weights
 * every bank or window equally regardless of its traffic.
 */
double safeRate(double numerator, double denominator);

/** What a window boundary does to one StatSet entry. */
enum class WindowRule : std::uint8_t
{
    Subtract,  //!< counter: after - before
    KeepLast,  //!< gauge, quantile or summary: the end-of-window reading
    Recompute, //!< rate: safeRate of its windowed raw counters
};

/** The raw counters of a rate entry: num / (den[0] + den[1] + ...). */
struct StatRate
{
    std::string num;
    std::vector<std::string> den;
};

/**
 * An ordered collection of (name, value) statistics.  Values are doubles
 * so both counters and derived ratios fit.
 */
class StatSet
{
  public:
    /** An entry's window rule; rate is set for Recompute only. */
    struct Rule
    {
        WindowRule window = WindowRule::Subtract;
        StatRate rate;
    };

    /** Add or overwrite a counter, which subtracts across a window. */
    void add(const std::string &name, double value);

    /**
     * Add or overwrite a point-in-time reading (a gauge, a percentile
     * of a cumulative histogram, a mean of internal state), which a
     * window reports as its end-of-window value.
     */
    void addGauge(const std::string &name, double value);

    /**
     * Add or overwrite safeRate(@p num, sum of @p den), read from raw
     * counters already in this set; a window recomputes it from the
     * windowed raws.  panic() if a raw counter is absent.
     */
    void addRate(const std::string &name, std::string num,
                 std::vector<std::string> den);

    /**
     * Merge another set under a name prefix ("llc." etc.).  Rules copy
     * along, and a rate's raw names take the prefix too.
     */
    void addAll(const std::string &prefix, const StatSet &other);

    /** Lookup; fatal() if absent (tests rely on exact names). */
    double get(const std::string &name) const;

    /** True if @p name is present. */
    bool has(const std::string &name) const;

    /** Window rule of @p name; fatal() if absent. */
    WindowRule windowRule(const std::string &name) const;

    /** All stats in insertion order. */
    const std::vector<std::pair<std::string, double>> &entries() const
    {
        return ordered;
    }

    /** Each entry's rule, parallel to entries(). */
    const std::vector<Rule> &rules() const { return ruleOf; }

    /** Render as aligned "name value" lines. */
    std::string toString() const;

  private:
    void put(const std::string &name, double value, Rule rule);
    std::size_t indexOf(const std::string &name) const;

    std::map<std::string, std::size_t> index;
    std::vector<std::pair<std::string, double>> ordered;
    std::vector<Rule> ruleOf;
};

} // namespace garibaldi

#endif // GARIBALDI_COMMON_STATS_HH
