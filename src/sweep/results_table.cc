#include "sweep/results_table.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace garibaldi
{

namespace
{

/** Quote a CSV field when it needs it (comma, quote, newline). */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

ResultsTable::ResultsTable(std::vector<std::string> coord_columns,
                           std::vector<std::string> metric_columns)
    : coordCols(std::move(coord_columns)),
      metricCols(std::move(metric_columns))
{
}

void
ResultsTable::resize(std::size_t rows)
{
    rows_.resize(rows);
}

void
ResultsTable::setRow(std::size_t i, std::vector<std::string> coords,
                     std::vector<double> metrics)
{
    if (i >= rows_.size())
        fatal("results: row ", i, " out of range");
    if (coords.size() != coordCols.size() ||
        metrics.size() != metricCols.size())
        fatal("results: row shape mismatch");
    rows_[i].coords = std::move(coords);
    rows_[i].metrics = std::move(metrics);
}

const ResultsTable::Row &
ResultsTable::row(std::size_t i) const
{
    if (i >= rows_.size())
        fatal("results: row ", i, " out of range");
    return rows_[i];
}

std::size_t
ResultsTable::coordIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < coordCols.size(); ++i)
        if (coordCols[i] == name)
            return i;
    fatal("results: unknown coordinate column '", name, "'");
}

std::size_t
ResultsTable::metricIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < metricCols.size(); ++i)
        if (metricCols[i] == name)
            return i;
    fatal("results: unknown metric column '", name, "'");
}

std::vector<const ResultsTable::Row *>
ResultsTable::select(const CoordSelector &sel) const
{
    std::vector<std::size_t> idx;
    idx.reserve(sel.size());
    for (const auto &kv : sel)
        idx.push_back(coordIndex(kv.first));

    std::vector<const Row *> out;
    for (const Row &r : rows_) {
        bool match = true;
        for (std::size_t i = 0; i < sel.size(); ++i) {
            if (r.coords[idx[i]] != sel[i].second) {
                match = false;
                break;
            }
        }
        if (match)
            out.push_back(&r);
    }
    return out;
}

double
ResultsTable::value(const CoordSelector &sel,
                    const std::string &metric) const
{
    std::vector<const Row *> matches = select(sel);
    if (matches.size() != 1) {
        std::string what;
        for (const auto &kv : sel)
            what += kv.first + "=" + kv.second + " ";
        fatal("results: selector {", what, "} matched ",
              matches.size(), " rows (want exactly 1)");
    }
    return matches[0]->metrics[metricIndex(metric)];
}

const std::string &
ResultsTable::coordOf(const Row &row, const std::string &name) const
{
    return row.coords[coordIndex(name)];
}

std::string
ResultsTable::toCsv() const
{
    std::string out;
    for (std::size_t i = 0; i < coordCols.size(); ++i) {
        if (i)
            out += ',';
        out += csvField(coordCols[i]);
    }
    for (const auto &m : metricCols) {
        if (!out.empty())
            out += ',';
        out += csvField(m);
    }
    out += '\n';
    for (const Row &r : rows_) {
        for (std::size_t i = 0; i < r.coords.size(); ++i) {
            if (i)
                out += ',';
            out += csvField(r.coords[i]);
        }
        for (std::size_t i = 0; i < r.metrics.size(); ++i) {
            if (i || !r.coords.empty())
                out += ',';
            out += jsonNumber(r.metrics[i]);
        }
        out += '\n';
    }
    return out;
}

std::string
ResultsTable::toJson(int indent) const
{
    JsonValue doc = JsonValue::object();
    JsonValue coords = JsonValue::array();
    for (const auto &c : coordCols)
        coords.push(JsonValue::string(c));
    doc.set("coords", std::move(coords));
    JsonValue metrics = JsonValue::array();
    for (const auto &m : metricCols)
        metrics.push(JsonValue::string(m));
    doc.set("metrics", std::move(metrics));
    JsonValue rows = JsonValue::array();
    for (const Row &r : rows_) {
        JsonValue row = JsonValue::object();
        for (std::size_t i = 0; i < coordCols.size(); ++i)
            row.set(coordCols[i], JsonValue::string(r.coords[i]));
        for (std::size_t i = 0; i < metricCols.size(); ++i)
            row.set(metricCols[i], JsonValue::number(r.metrics[i]));
        rows.push(std::move(row));
    }
    doc.set("rows", std::move(rows));
    return doc.dump(indent);
}

ResultsTable
ResultsTable::fromJson(const std::string &text)
{
    JsonValue doc = JsonValue::parse(text);
    std::vector<std::string> coords, metrics;
    for (std::size_t i = 0; i < doc.get("coords").size(); ++i)
        coords.push_back(doc.get("coords").at(i).asString());
    for (std::size_t i = 0; i < doc.get("metrics").size(); ++i)
        metrics.push_back(doc.get("metrics").at(i).asString());
    ResultsTable t(coords, metrics);
    const JsonValue &rows = doc.get("rows");
    t.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const JsonValue &row = rows.at(r);
        std::vector<std::string> cs;
        std::vector<double> ms;
        for (const auto &c : coords)
            cs.push_back(row.get(c).asString());
        for (const auto &m : metrics)
            ms.push_back(row.get(m).asNumber());
        t.setRow(r, std::move(cs), std::move(ms));
    }
    return t;
}

bool
ResultsTable::operator==(const ResultsTable &other) const
{
    if (coordCols != other.coordCols || metricCols != other.metricCols ||
        rows_.size() != other.rows_.size())
        return false;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        if (rows_[i].coords != other.rows_[i].coords ||
            rows_[i].metrics != other.rows_[i].metrics)
            return false;
    }
    return true;
}

} // namespace garibaldi
