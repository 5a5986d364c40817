#include "mem/policy/recency_stamps.hh"

#include <array>

#include "common/logging.hh"

namespace garibaldi
{

RecencyStamps::RecencyStamps(std::uint32_t num_sets, std::uint32_t assoc_)
    : assoc(assoc_)
{
    if (assoc_ == 0 || assoc_ > kMaxAssoc)
        fatal("recency stamps: associativity ", assoc_,
              " outside 1..", kMaxAssoc);
    cells = makeZeroedArray<std::uint8_t>(std::size_t{num_sets} *
                                          (assoc_ + 1));
}

std::uint8_t
RecencyStamps::rerank(std::uint8_t *r) const
{
    // A row's nonzero stamps are distinct (each touch writes a new
    // maximum), so ranking them is a counting pass over the byte values.
    std::array<std::uint8_t, 256> rank{};
    for (std::uint32_t w = 0; w < assoc; ++w)
        rank[r[w]] = 1;
    rank[0] = 0; // untouched ways stay 0
    std::uint8_t k = 0;
    for (std::size_t v = 1; v < rank.size(); ++v)
        if (rank[v])
            rank[v] = ++k;
    for (std::uint32_t w = 0; w < assoc; ++w)
        r[w] = rank[r[w]];
    return k;
}

} // namespace garibaldi
