/**
 * @file
 * Static code layout of a synthetic workload: functions of basic
 * blocks placed sequentially in the virtual code region, each block
 * typed with a data class, memory intensity and branch bias.
 */

#ifndef GARIBALDI_WORKLOADS_CODE_LAYOUT_HH
#define GARIBALDI_WORKLOADS_CODE_LAYOUT_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workloads/workload_params.hh"

namespace garibaldi
{

/** One generated basic block. */
struct BlockInfo
{
    Addr pc = 0;                //!< first instruction address
    std::uint16_t numInstrs = 0;
    DataClass cls = DataClass::Warm;
    float takenProb = 0;        //!< terminating-branch bias
    std::uint16_t loopIters = 1; //!< consecutive executions of the block
    Addr preferredLine = 0;     //!< stable hot data line (vaddr)
};
static_assert(sizeof(BlockInfo) == 32, "BlockInfo must stay compact");

/** One generated function. */
struct FunctionInfo
{
    std::uint32_t firstBlock = 0;
    std::uint32_t numBlocks = 0;
    Addr entry = 0;
};

/** Deterministically generated program image. */
class CodeLayout
{
  public:
    /** Virtual base of the code region. */
    static constexpr Addr kCodeBase = 0x00400000;
    /** Bytes per modeled instruction. */
    static constexpr Addr kInstrBytes = 4;

    /**
     * @param params workload description
     * @param rng generator seeded per (workload, instance)
     * @param hot_line_base virtual base of the hot data region (for
     *        preferred-line assignment)
     */
    CodeLayout(const WorkloadParams &params, Pcg32 &rng,
               Addr hot_line_base);

    const FunctionInfo &function(std::uint32_t i) const
    {
        return functions[i];
    }
    const BlockInfo &block(std::uint32_t i) const { return blocks[i]; }
    std::uint32_t numFunctions() const
    {
        return static_cast<std::uint32_t>(functions.size());
    }
    std::uint32_t numBlocks() const
    {
        return static_cast<std::uint32_t>(blocks.size());
    }

    /** Per-instruction memory-op odds, the same for every block. */
    float memProb() const { return memOdds; }
    /** Share of memory ops that are stores, the same for every block. */
    float storeFraction() const { return storeOdds; }

    /** Total code bytes laid out. */
    Addr codeBytes() const { return nextPc - kCodeBase; }

    /** Distinct instruction cache lines in the image. */
    std::uint64_t codeLines() const
    {
        return divCeilLines(codeBytes());
    }

  private:
    static std::uint64_t
    divCeilLines(Addr bytes)
    {
        return (bytes + kLineBytes - 1) / kLineBytes;
    }

    std::vector<FunctionInfo> functions;
    std::vector<BlockInfo> blocks; //!< sized exactly
    float memOdds;
    float storeOdds;
    Addr nextPc = kCodeBase;
};

} // namespace garibaldi

#endif // GARIBALDI_WORKLOADS_CODE_LAYOUT_HH
