/**
 * @file
 * Minimal gem5-flavored logging/termination helpers.
 *
 * panic(): a simulator bug — something that must never happen regardless
 * of user input; aborts so a core dump / debugger can be attached.
 * fatal(): the user's fault (bad configuration, invalid arguments);
 * exits cleanly with an error code.
 * warn()/inform(): status messages that never stop the simulation.
 */

#ifndef GARIBALDI_COMMON_LOGGING_HH
#define GARIBALDI_COMMON_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

namespace garibaldi
{

namespace detail
{

/** Fold a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Abort with a message: internal invariant violated (simulator bug). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::fprintf(stderr, "panic: %s\n",
                 detail::concat(std::forward<Args>(args)...).c_str());
    std::abort();
}

/** Exit with a message: unusable user configuration or input. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::fprintf(stderr, "fatal: %s\n",
                 detail::concat(std::forward<Args>(args)...).c_str());
    std::exit(1);
}

/** Non-fatal warning about questionable but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    std::fprintf(stderr, "warn: %s\n",
                 detail::concat(std::forward<Args>(args)...).c_str());
}

/** Informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    std::fprintf(stderr, "info: %s\n",
                 detail::concat(std::forward<Args>(args)...).c_str());
}

} // namespace garibaldi

/**
 * Rate-limited warnings for per-access paths: the per-call-site static
 * keeps a warning embedded in a hot loop from flooding a 100k-access
 * run.  Macros (not templates) because each *call site* needs its own
 * suppression state; atomics because sweep workers share call sites.
 *
 * These statics are mutable but internally synchronized (relaxed
 * atomics); a waiver comment cannot live inside a backslash-continued
 * macro body, so the determinism lint exempts this file by path
 * (STATIC_MUTABLE_EXEMPT in scripts/lint_determinism.py).  They feed
 * stderr rate-limiting only and never reach simulated output.
 *
 * warn_once(...): emit on the first hit at this site, swallow the rest.
 */
#define warn_once(...)                                                   \
    do {                                                                 \
        static std::atomic<bool> warn_once_fired_{false};                \
        if (!warn_once_fired_.exchange(true,                             \
                                       std::memory_order_relaxed))       \
            ::garibaldi::warn(__VA_ARGS__);                              \
    } while (0)

/**
 * warn_every_n(n, ...): emit on the 1st, (n+1)th, (2n+1)th ... hit at
 * this site, tagging each emission with the total occurrence count so
 * the suppressed volume stays visible.
 */
#define warn_every_n(n, ...)                                             \
    do {                                                                 \
        static std::atomic<std::uint64_t> warn_every_count_{0};          \
        std::uint64_t warn_seen_ = warn_every_count_.fetch_add(          \
            1, std::memory_order_relaxed);                               \
        if (warn_seen_ % (n) == 0)                                       \
            ::garibaldi::warn(__VA_ARGS__, " (occurrence ",              \
                              warn_seen_ + 1, ")");                      \
    } while (0)

#endif // GARIBALDI_COMMON_LOGGING_HH
