/**
 * @file
 * Virtual data regions of a synthetic workload: a small Zipf-heavy hot
 * region, a mildly skewed warm region, and a large sequentially walked
 * stream region.  Addresses are virtual; the per-core page table turns
 * them into scattered physical frames.
 */

#ifndef GARIBALDI_WORKLOADS_DATA_SPACE_HH
#define GARIBALDI_WORKLOADS_DATA_SPACE_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "workloads/workload_params.hh"

namespace garibaldi
{

/** Data-region sampler. */
class DataSpace
{
  public:
    static constexpr Addr kHotBase = 0x10000000;
    static constexpr Addr kWarmBase = 0x40000000;
    static constexpr Addr kStreamBase = 0x100000000;

    explicit DataSpace(const WorkloadParams &params);

    /** Draw a byte address from the given class. */
    Addr sample(DataClass cls, Pcg32 &rng);

    std::uint64_t hotLines() const { return hotLineCount; }
    std::uint64_t warmLines() const { return warmLineCount; }
    std::uint64_t streamLines() const { return streamLineCount; }

  private:
    std::uint64_t hotLineCount;
    std::uint64_t warmLineCount;
    std::uint64_t streamLineCount;
    ZipfSampler hotSampler;
    ZipfSampler warmSampler;
    std::uint64_t streamCursor = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_WORKLOADS_DATA_SPACE_HH
