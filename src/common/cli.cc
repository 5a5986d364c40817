#include "common/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace garibaldi
{

namespace
{

/**
 * Why @p text is not a valid value for an integer (@p integer) or
 * floating-point option, or null when it parses completely and in
 * range.  Integers take base 0, so hex and octal spellings parse.
 */
const char *
numberError(const std::string &text, bool integer)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    if (integer)
        std::strtoll(begin, &end, 0);
    else
        std::strtod(begin, &end);
    if (end == begin || *end != '\0')
        return integer ? "is not an integer" : "is not a number";
    return errno == ERANGE ? "is out of range" : nullptr;
}

} // namespace

ArgParser::ArgParser(std::string description_)
    : description(std::move(description_))
{
    addFlag("help", "show this help and exit");
}

void
ArgParser::addInt(const std::string &name, std::int64_t def,
                  const std::string &help)
{
    options.push_back({name, Kind::Int, help, std::to_string(def),
                       std::to_string(def)});
}

void
ArgParser::addDouble(const std::string &name, double def,
                     const std::string &help)
{
    options.push_back({name, Kind::Double, help, std::to_string(def),
                       std::to_string(def)});
}

void
ArgParser::addString(const std::string &name, const std::string &def,
                     const std::string &help)
{
    options.push_back({name, Kind::String, help, def, def});
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    options.push_back({name, Kind::Flag, help, "0", "0"});
}

const ArgParser::Option *
ArgParser::find(const std::string &name, Kind kind) const
{
    for (const auto &o : options) {
        if (o.name == name) {
            if (o.kind != kind)
                panic("option --", name, " accessed with wrong type");
            return &o;
        }
    }
    panic("unknown option --", name);
}

ArgParser::Option *
ArgParser::findMutable(const std::string &name)
{
    for (auto &o : options)
        if (o.name == name)
            return &o;
    return nullptr;
}

void
ArgParser::usage(const char *prog) const
{
    std::printf("%s\n\nusage: %s [options]\n\noptions:\n",
                description.c_str(), prog);
    for (const auto &o : options) {
        std::string lhs = "  --" + o.name;
        if (o.kind != Kind::Flag)
            lhs += " <v>";
        std::printf("%-26s %s", lhs.c_str(), o.help.c_str());
        if (o.kind != Kind::Flag)
            std::printf(" (default: %s)", o.def.c_str());
        std::printf("\n");
    }
}

void
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            std::exit(1);
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        Option *opt = findMutable(name);
        if (!opt) {
            std::fprintf(stderr, "error: unknown option --%s\n",
                         name.c_str());
            std::exit(1);
        }
        opt->set = true;
        if (opt->kind == Kind::Flag) {
            opt->value = "1";
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: --%s requires a value\n",
                             name.c_str());
                std::exit(1);
            }
            value = argv[++i];
        }
        if (opt->kind == Kind::Int || opt->kind == Kind::Double) {
            if (const char *why =
                    numberError(value, opt->kind == Kind::Int)) {
                std::fprintf(stderr, "error: --%s value '%s' %s\n",
                             name.c_str(), value.c_str(), why);
                std::exit(1);
            }
        }
        opt->value = value;
    }
    if (getFlag("help")) {
        usage(argv[0]);
        std::exit(0);
    }
}

std::int64_t
ArgParser::getInt(const std::string &name, std::int64_t min,
                  std::int64_t max) const
{
    std::int64_t v =
        std::strtoll(find(name, Kind::Int)->value.c_str(), nullptr, 0);
    if (v < min || v > max) {
        std::fprintf(stderr, "error: --%s must be %s %lld (got %lld)\n",
                     name.c_str(), v < min ? ">=" : "<=",
                     static_cast<long long>(v < min ? min : max),
                     static_cast<long long>(v));
        std::exit(1);
    }
    return v;
}

std::uint64_t
ArgParser::getUnsigned(const std::string &name, std::int64_t max) const
{
    return static_cast<std::uint64_t>(getInt(name, 0, max));
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(find(name, Kind::Double)->value.c_str(), nullptr);
}

const std::string &
ArgParser::getString(const std::string &name) const
{
    return find(name, Kind::String)->value;
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return find(name, Kind::Flag)->value == "1";
}

bool
ArgParser::wasSet(const std::string &name) const
{
    for (const auto &o : options)
        if (o.name == name)
            return o.set;
    panic("unknown option --", name);
}

} // namespace garibaldi
