/**
 * @file
 * Runtime invariant-audit mode: SIM_ASSERT checks for the identities
 * earlier PRs verified by hand (DRAM stall-subset books, telemetry
 * window chaining, MSHR booking sanity, per-bank budget splits).
 *
 * Two gates, mirroring the obs subsystem's overhead discipline:
 *
 *  - Compile time: the SIM_AUDIT preprocessor flag (CMake option
 *    SIM_AUDIT, default ON).  OFF expands every SIM_ASSERT to nothing —
 *    true zero cost for maximal-perf builds.
 *  - Run time: the --audit knob (audit::setEnabled).  Compiled-in but
 *    disabled checks cost one predictable branch on a relaxed atomic
 *    load per check site — the same "one branch" budget the tracer's
 *    null-pointer gate pays.
 *
 * A failing check is a simulator bug, never a user error, so it
 * panic()s (aborts) with an "audit:" prefix the death tests key on.
 */

#ifndef GARIBALDI_COMMON_AUDIT_HH
#define GARIBALDI_COMMON_AUDIT_HH

#include <atomic>
#include <cstdint>

#include "common/logging.hh"

namespace garibaldi
{

class ArgParser;

namespace audit
{

/** The checks exist in this build (CMake -DSIM_AUDIT). */
#if SIM_AUDIT
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

namespace detail
{
/**
 * Relaxed atomic, not a plain bool: the sweep engine's workers read it
 * concurrently after main() set it, and the audit build must itself be
 * clean under the TSan lane it is meant to run in.
 */
inline std::atomic<bool> enabled_{false};
} // namespace detail

/** The --audit knob is on (always false when not compiled in). */
inline bool
enabled()
{
    return kCompiledIn &&
           detail::enabled_.load(std::memory_order_relaxed);
}

/** Flip the runtime knob (CLI layer; set before any sim runs). */
inline void
setEnabled(bool on)
{
    detail::enabled_.store(on, std::memory_order_relaxed);
}

} // namespace audit

/**
 * Audit assertion: panics with an "audit:" prefix when @p cond is
 * false and the audit mode is compiled in AND enabled.  The condition
 * is not evaluated when the knob is off, so check expressions may be
 * arbitrarily expensive.
 */
#if SIM_AUDIT
#define SIM_ASSERT(cond, ...)                                            \
    do {                                                                 \
        if (::garibaldi::audit::enabled() && !(cond))                    \
            ::garibaldi::panic("audit: ", __VA_ARGS__,                   \
                               " [violated: " #cond "]");                \
    } while (0)
#else
// sizeof never evaluates its operand, so the condition's operands
// (often otherwise-unused audit-only parameters) count as used
// without generating any code.
#define SIM_ASSERT(cond, ...)                                            \
    do {                                                                 \
        (void)sizeof((cond));                                            \
    } while (0)
#endif

namespace audit
{

/**
 * Stall books must stay subsets of the queue book: turnaround and
 * refresh stalls are, by construction, components of the queue delay a
 * requester observed, so their cumulative sums can never exceed the
 * cumulative queued cycles (the identity PR 5 verified by hand and the
 * avg_queue_delay recompute silently depends on).
 */
inline void
checkStallSubset(const char *who, std::uint64_t turnaround_cycles,
                 std::uint64_t refresh_stall_cycles,
                 std::uint64_t queued_cycles)
{
    SIM_ASSERT(turnaround_cycles + refresh_stall_cycles <= queued_cycles,
               who, ": turnaround (", turnaround_cycles,
               ") + refresh stalls (", refresh_stall_cycles,
               ") exceed queued cycles (", queued_cycles, ")");
    (void)who;
    (void)turnaround_cycles;
    (void)refresh_stall_cycles;
    (void)queued_cycles;
}

/**
 * Per-bank MSHR shares must sum to the configured whole-LLC budget —
 * max(total, banks) with the every-bank-keeps-one clamp (the PR-3
 * remainder-first split: 10 over 4 banks = 3+3+2+2, never 2x4).
 */
inline void
checkMshrBudgetSplit(const char *who, std::uint64_t total_budget,
                     std::uint64_t banks, std::uint64_t assigned_sum)
{
    SIM_ASSERT(assigned_sum ==
                   (total_budget > banks ? total_budget : banks),
               who, ": per-bank MSHR shares sum to ", assigned_sum,
               " but the configured budget is ", total_budget, " over ",
               banks, " banks");
    (void)who;
    (void)total_budget;
    (void)banks;
    (void)assigned_sum;
}

/**
 * Register the --audit flag.  Pairs with applyAuditArg the way
 * addObsArgs pairs with obsConfigFromArgs.
 */
void addAuditArg(ArgParser &args);

/**
 * Act on --audit: enable the checks, or fatal() when the flag is
 * passed to a build compiled without them (silently "auditing"
 * nothing would be false confidence).  @return the knob state.
 */
bool applyAuditArg(const ArgParser &args);

} // namespace audit
} // namespace garibaldi

#endif // GARIBALDI_COMMON_AUDIT_HH
