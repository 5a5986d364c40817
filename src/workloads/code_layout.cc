#include "workloads/code_layout.hh"

#include "common/logging.hh"

namespace garibaldi
{

CodeLayout::CodeLayout(const WorkloadParams &params, Pcg32 &rng,
                       Addr hot_line_base)
    : memOdds(static_cast<float>(params.memProb)),
      storeOdds(static_cast<float>(params.storeFraction))
{
    if (params.numFunctions == 0)
        fatal("workload '", params.name, "' has no functions");
    if (params.minBlocksPerFunction == 0 ||
        params.maxBlocksPerFunction < params.minBlocksPerFunction)
        fatal("workload '", params.name, "' block-count range invalid");

    std::uint64_t hot_lines = params.hotBytes / kLineBytes;
    std::uint32_t pool = params.preferredPool;
    if (pool == 0 || pool > hot_lines)
        pool = static_cast<std::uint32_t>(hot_lines ? hot_lines : 1);
    std::uint32_t pool_offset = params.preferredPoolOffset;
    if (pool_offset + pool > hot_lines)
        pool_offset = static_cast<std::uint32_t>(hot_lines - pool);

    functions.reserve(params.numFunctions);
    for (std::uint32_t f = 0; f < params.numFunctions; ++f) {
        FunctionInfo fi;
        fi.firstBlock = static_cast<std::uint32_t>(blocks.size());
        fi.numBlocks = params.minBlocksPerFunction +
            rng.nextBounded(params.maxBlocksPerFunction -
                            params.minBlocksPerFunction + 1);
        fi.entry = nextPc;

        for (std::uint32_t b = 0; b < fi.numBlocks; ++b) {
            BlockInfo bi;
            bi.pc = nextPc;
            bi.numInstrs = static_cast<std::uint16_t>(
                params.minInstrsPerBlock +
                rng.nextBounded(params.maxInstrsPerBlock -
                                params.minInstrsPerBlock + 1));
            nextPc += bi.numInstrs * kInstrBytes;

            double roll = rng.nextDouble();
            if (roll < params.hotBlockFraction) {
                bi.cls = DataClass::Hot;
                bi.loopIters = 1;
            } else if (roll < params.hotBlockFraction +
                                  params.streamBlockFraction) {
                // Scan blocks: few hot instruction lines streaming cold
                // data in tight loops — the inverse pairing of Fig. 4(c).
                bi.cls = DataClass::Stream;
                bi.loopIters = static_cast<std::uint16_t>(
                    params.scanLoopIters ? params.scanLoopIters : 1);
            } else {
                bi.cls = DataClass::Warm;
                bi.loopIters = 1;
            }
            if (bi.loopIters < params.blockLoopIters &&
                bi.cls != DataClass::Stream) {
                bi.loopIters = static_cast<std::uint16_t>(
                    params.blockLoopIters);
            }

            bi.takenProb = rng.chance(params.branchNoise)
                ? 0.5f
                : static_cast<float>(params.takenBias);
            // Preferred line: stable hot target drawn from a shared
            // pool so several blocks pair with the same data line.
            bi.preferredLine = hot_line_base +
                Addr{pool_offset + rng.nextBounded(pool)} * kLineBytes;
            blocks.push_back(bi);
        }
        // Separate functions by a line so entries do not share lines.
        nextPc = (nextPc + kLineBytes - 1) & ~(kLineBytes - 1);
        functions.push_back(fi);
    }
    blocks.shrink_to_fit();
}

} // namespace garibaldi
