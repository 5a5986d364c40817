#include "mem/policy/replacement.hh"

#include "common/logging.hh"

namespace garibaldi
{

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LRU:
        return "lru";
      case PolicyKind::DRRIP:
        return "drrip";
      case PolicyKind::Hawkeye:
        return "hawkeye";
      case PolicyKind::Mockingjay:
        return "mockingjay";
      default:
        return "?";
    }
}

PolicyKind
parsePolicyKind(const std::string &name)
{
    if (name == "lru")
        return PolicyKind::LRU;
    if (name == "drrip")
        return PolicyKind::DRRIP;
    if (name == "hawkeye")
        return PolicyKind::Hawkeye;
    if (name == "mockingjay")
        return PolicyKind::Mockingjay;
    fatal("unknown replacement policy '", name, "'");
}

ReplacementPolicy
makePolicy(PolicyKind kind, std::uint32_t num_sets, std::uint32_t assoc,
           const PolicyParams &params)
{
    switch (kind) {
      case PolicyKind::LRU:
        return ReplacementPolicy(std::in_place_type<LruPolicy>, num_sets,
                                 assoc);
      case PolicyKind::DRRIP:
        return ReplacementPolicy(std::in_place_type<DrripPolicy>,
                                 num_sets, assoc, params.counterBits,
                                 params.seed);
      case PolicyKind::Hawkeye:
        return ReplacementPolicy(std::in_place_type<HawkeyePolicy>,
                                 num_sets, assoc, params);
      case PolicyKind::Mockingjay:
        return ReplacementPolicy(std::in_place_type<MockingjayPolicy>,
                                 num_sets, assoc, params);
    }
    panic("makePolicy: bad kind");
}

} // namespace garibaldi
