/**
 * @file
 * Host-cache prefetch of a simulator array row.  A hint only: it
 * changes no simulated state, so every output is the same with or
 * without it.
 */

#ifndef GARIBALDI_COMMON_HOST_PREFETCH_HH
#define GARIBALDI_COMMON_HOST_PREFETCH_HH

#include <cstddef>

namespace garibaldi
{

/** Bytes per host cache line assumed by prefetchHostLines(). */
inline constexpr std::size_t kHostLineBytes = 64;

/**
 * Prefetch every host cache line of [@p p, @p p + @p bytes): one hint
 * per kHostLineBytes step, plus the last byte for the line a
 * misaligned row spills into.
 */
inline void
prefetchHostLines(const void *p, std::size_t bytes)
{
    const char *c = static_cast<const char *>(p);
    for (std::size_t off = 0; off < bytes; off += kHostLineBytes)
        __builtin_prefetch(c + off);
    __builtin_prefetch(c + bytes - 1);
}

} // namespace garibaldi

#endif // GARIBALDI_COMMON_HOST_PREFETCH_HH
