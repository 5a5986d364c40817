/**
 * @file
 * Structured sweep results: a rectangular table of string coordinate
 * columns (axis labels) and double metric columns, one row per
 * SweepJob, stored in job-index order so output is deterministic
 * regardless of execution interleaving.  Emits CSV and JSON; JSON is
 * the round-trip format (self-describing, numbers print via
 * jsonNumber() so values survive exactly), and fromJson() parses it
 * back.  Supports coordinate-selector lookups so benches can normalize
 * against baseline rows (e.g. policy=lru) after a single fan-out.
 */

#ifndef GARIBALDI_SWEEP_RESULTS_TABLE_HH
#define GARIBALDI_SWEEP_RESULTS_TABLE_HH

#include <string>
#include <utility>
#include <vector>

namespace garibaldi
{

/** (column, value) pairs; a row matches when all pairs match. */
using CoordSelector =
    std::vector<std::pair<std::string, std::string>>;

/** Aggregated sweep output. */
class ResultsTable
{
  public:
    struct Row
    {
        std::vector<std::string> coords;  //!< per coord column
        std::vector<double> metrics;      //!< per metric column
    };

    ResultsTable() = default;
    ResultsTable(std::vector<std::string> coord_columns,
                 std::vector<std::string> metric_columns);

    /** Pre-size to @p rows empty rows (filled by index). */
    void resize(std::size_t rows);

    /** Fill row @p i; sizes must match the column counts. */
    void setRow(std::size_t i, std::vector<std::string> coords,
                std::vector<double> metrics);

    std::size_t rowCount() const { return rows_.size(); }
    const Row &row(std::size_t i) const;

    /** Rows matching every (column, value) pair of @p sel. */
    std::vector<const Row *> select(const CoordSelector &sel) const;

    /**
     * The @p metric value of the unique row matching @p sel; fatal()
     * on zero or multiple matches (selector underspecified).
     */
    double value(const CoordSelector &sel,
                 const std::string &metric) const;

    /** Coordinate value of @p row in column @p name. */
    const std::string &coordOf(const Row &row,
                               const std::string &name) const;

    /** RFC-4180-style CSV: header line then one line per row. */
    std::string toCsv() const;

    /** JSON document: {"coords":[...],"metrics":[...],"rows":[...]} */
    std::string toJson(int indent = 2) const;

    /** Parse a toJson() document back into a table. */
    static ResultsTable fromJson(const std::string &text);

    bool operator==(const ResultsTable &other) const;
    bool operator!=(const ResultsTable &other) const
    {
        return !(*this == other);
    }

  private:
    std::size_t coordIndex(const std::string &name) const;
    std::size_t metricIndex(const std::string &name) const;

    std::vector<std::string> coordCols;
    std::vector<std::string> metricCols;
    std::vector<Row> rows_;
};

} // namespace garibaldi

#endif // GARIBALDI_SWEEP_RESULTS_TABLE_HH
