#include "mem/policy/optgen.hh"

#include "common/logging.hh"

namespace garibaldi
{

OptGen::OptGen(std::uint32_t cache_assoc, std::uint32_t window_)
    : assocLimit(static_cast<std::uint8_t>(cache_assoc)), window(window_)
{
    if (cache_assoc == 0 || cache_assoc > 255 || window_ == 0)
        fatal("OptGen needs associativity 1..255 and a non-zero window, "
              "got ", cache_assoc, " and ", window_);
}

bool
OptGen::access(std::uint8_t *occupancy, std::uint64_t now,
               std::uint64_t reuse) const
{
    // The slot for "now" starts empty.
    occupancy[now % window] = 0;
    if (reuse == 0 || reuse >= window)
        return false;

    // Liveness interval [now - reuse, now): OPT caches the line iff
    // every quantum in the interval still has spare capacity.
    auto start = static_cast<std::uint32_t>((now - reuse) % window);
    std::uint32_t t = start;
    for (std::uint64_t i = 0; i < reuse; ++i) {
        if (occupancy[t] >= assocLimit)
            return false;
        if (++t == window)
            t = 0;
    }
    t = start;
    for (std::uint64_t i = 0; i < reuse; ++i) {
        ++occupancy[t];
        if (++t == window)
            t = 0;
    }
    return true;
}

} // namespace garibaldi
