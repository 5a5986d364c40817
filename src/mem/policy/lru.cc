#include "mem/policy/lru.hh"

namespace garibaldi
{

LruPolicy::LruPolicy(std::uint32_t num_sets, std::uint32_t assoc_)
    : PolicyBase(num_sets, assoc_), stamps(num_sets, assoc_)
{
}

void
LruPolicy::onHit(std::uint32_t set, std::uint32_t way, const MemAccess &)
{
    stamps.touch(set, way);
}

std::uint32_t
LruPolicy::victim(std::uint32_t set, const MemAccess &)
{
    return stamps.oldest(set, 0, assoc);
}

void
LruPolicy::onInsert(std::uint32_t set, std::uint32_t way, const MemAccess &)
{
    stamps.touch(set, way);
}

void
LruPolicy::promote(std::uint32_t set, std::uint32_t way)
{
    stamps.touch(set, way);
}

void
LruPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    stamps.clear(set, way);
}

} // namespace garibaldi
