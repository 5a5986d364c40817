#include "common/stat_kind.hh"

#include "common/logging.hh"

namespace garibaldi
{

WindowRule
windowRuleOf(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        return WindowRule::Subtract;
      case StatKind::Rate:
        return WindowRule::Recompute;
      case StatKind::Gauge:
      case StatKind::Quantile:
      case StatKind::HistogramSummary:
        return WindowRule::KeepLast;
    }
    return WindowRule::Subtract;
}

const char *
statKindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        return "counter";
      case StatKind::Rate:
        return "rate";
      case StatKind::Gauge:
        return "gauge";
      case StatKind::Quantile:
        return "quantile";
      case StatKind::HistogramSummary:
        return "histogram_summary";
    }
    return "counter";
}

const char *const *
StatKindRegistry::quantileSuffixes()
{
    static const char *const kSuffixes[] = {"_p50", "_p90", "_p95",
                                            "_p99", nullptr};
    return kSuffixes;
}

namespace
{

bool
endsWith(const std::string &name, const std::string &suffix)
{
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Glob match where each '*' in @p pat spans any run of characters. */
bool
globMatch(const char *pat, const char *s)
{
    for (; *pat != '*'; ++pat, ++s) {
        if (*pat == '\0')
            return *s == '\0';
        if (*s == '\0' || *pat != *s)
            return false;
    }
    for (; *s != '\0'; ++s)
        if (globMatch(pat + 1, s))
            return true;
    return globMatch(pat + 1, s);
}

bool
hasQuantileSuffix(const std::string &name)
{
    for (const char *const *s = StatKindRegistry::quantileSuffixes();
         *s != nullptr; ++s)
        if (endsWith(name, *s))
            return true;
    return false;
}

} // namespace

StatKindRegistry &
StatKindRegistry::mutableInstance()
{
    // determinism-lint: allow(static-mutable) populated once by the const SIM_STATS registrars during static init (single-threaded), strictly read-only after main() starts
    static StatKindRegistry registry;
    return registry;
}

const StatKindRegistry &
StatKindRegistry::instance()
{
    return mutableInstance();
}

const StatDecl *
StatKindRegistry::resolve(const std::string &name) const
{
    auto it = decls.find(name);
    if (it != decls.end())
        return &it->second;
    // Exported names carry addAll prefixes ("llc.", "dram.", ...), so
    // match the longest declared name sitting at a '.' boundary.
    const StatDecl *best = nullptr;
    std::size_t best_len = 0;
    for (const auto &[dname, decl] : decls) {
        if (dname.size() + 1 >= name.size() || dname.size() <= best_len)
            continue;
        if (name[name.size() - dname.size() - 1] != '.')
            continue;
        if (endsWith(name, dname)) {
            best = &decl;
            best_len = dname.size();
        }
    }
    if (best != nullptr)
        return best;
    // Wildcard families ("bank*.accesses") match the whole name or any
    // '.'-boundary suffix of it, like the literal suffix lookup above.
    for (const StatDecl &w : wilds) {
        for (std::size_t at = 0;;) {
            if (globMatch(w.name, name.c_str() + at))
                return &w;
            at = name.find('.', at);
            if (at == std::string::npos)
                break;
            ++at;
        }
    }
    return nullptr;
}

WindowRule
StatKindRegistry::windowRule(const std::string &name) const
{
    if (const StatDecl *d = resolve(name))
        return windowRuleOf(d->sem.kind);
    return hasQuantileSuffix(name) ? WindowRule::KeepLast
                                   : WindowRule::Subtract;
}

bool
StatKindRegistry::isQuantile(const std::string &name) const
{
    if (const StatDecl *d = resolve(name))
        return d->sem.kind == StatKind::Quantile;
    return hasQuantileSuffix(name);
}

StatDomainRegistrar::StatDomainRegistrar(
    const char *producer, std::initializer_list<StatDecl> decls)
{
    StatKindRegistry &reg = StatKindRegistry::mutableInstance();
    for (const StatDecl &d : decls) {
        std::string name(d.name);
        if (name.find('*') != std::string::npos) {
            reg.wilds.push_back(d);
            continue;
        }
        auto [it, inserted] = reg.decls.emplace(name, d);
        // Duplicate declarations across producers must agree on the
        // kind: windowing sees one declaration per name.
        if (!inserted && it->second.sem.kind != d.sem.kind)
            fatal("stat '", name, "' declared with conflicting kinds (",
                  statKindName(it->second.sem.kind), " vs ",
                  statKindName(d.sem.kind), ") by ", producer);
    }
}

} // namespace garibaldi
