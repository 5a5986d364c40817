#include "common/stats.hh"

#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace garibaldi
{

double
safeRate(double numerator, double denominator)
{
    return denominator > 0 ? numerator / denominator : 0.0;
}

void
StatSet::put(const std::string &name, double value, Rule rule)
{
    auto it = index.find(name);
    if (it != index.end()) {
        ordered[it->second].second = value;
        ruleOf[it->second] = std::move(rule);
        return;
    }
    index.emplace(name, ordered.size());
    ordered.emplace_back(name, value);
    ruleOf.push_back(std::move(rule));
}

void
StatSet::add(const std::string &name, double value)
{
    put(name, value, Rule{});
}

void
StatSet::addGauge(const std::string &name, double value)
{
    put(name, value, Rule{WindowRule::KeepLast, {}});
}

void
StatSet::addRate(const std::string &name, std::string num,
                 std::vector<std::string> den)
{
    auto raw = [this, &name](const std::string &counter) {
        auto it = index.find(counter);
        if (it == index.end())
            panic("StatSet: rate '", name, "' reads absent counter '",
                  counter, "'");
        return ordered[it->second].second;
    };
    double total = 0;
    for (const std::string &d : den)
        total += raw(d);
    double value = safeRate(raw(num), total);
    put(name, value,
        Rule{WindowRule::Recompute,
             StatRate{std::move(num), std::move(den)}});
}

void
StatSet::addAll(const std::string &prefix, const StatSet &other)
{
    for (std::size_t i = 0; i < other.ordered.size(); ++i) {
        Rule rule = other.ruleOf[i];
        if (rule.window == WindowRule::Recompute) {
            rule.rate.num = prefix + rule.rate.num;
            for (std::string &d : rule.rate.den)
                d = prefix + d;
        }
        put(prefix + other.ordered[i].first, other.ordered[i].second,
            std::move(rule));
    }
}

std::size_t
StatSet::indexOf(const std::string &name) const
{
    auto it = index.find(name);
    if (it == index.end())
        fatal("StatSet: unknown stat '", name, "'");
    return it->second;
}

double
StatSet::get(const std::string &name) const
{
    return ordered[indexOf(name)].second;
}

bool
StatSet::has(const std::string &name) const
{
    return index.count(name) != 0;
}

WindowRule
StatSet::windowRule(const std::string &name) const
{
    return ruleOf[indexOf(name)].window;
}

std::string
StatSet::toString() const
{
    std::size_t w = 0;
    for (const auto &[name, value] : ordered)
        w = std::max(w, name.size());
    std::ostringstream os;
    for (const auto &[name, value] : ordered) {
        os << std::left << std::setw(static_cast<int>(w) + 2) << name
           << std::setprecision(6) << value << "\n";
    }
    return os.str();
}

} // namespace garibaldi
