#include "workloads/synth_workload.hh"

#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

namespace
{

/** Build-time RNG: layout must not depend on the walk seed. */
Pcg32
layoutRng(const WorkloadParams &p)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : p.name)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return Pcg32(h, 0x1a7ab1e);
}

} // namespace

std::shared_ptr<const CodeLayout>
SynthWorkload::makeLayout(const WorkloadParams &params)
{
    Pcg32 r = layoutRng(params);
    return std::make_shared<const CodeLayout>(params, r,
                                              DataSpace::kHotBase);
}

SynthWorkload::SynthWorkload(const WorkloadParams &params,
                             std::uint64_t seed,
                             std::shared_ptr<const CodeLayout> layout)
    : p(params), walkRng(seed, mix64(seed) | 1),
      code(std::move(layout)),
      data(p),
      funcSampler(p.numFunctions, p.functionZipf),
      curFunc(&code->function(0))
{
    enterHandler();
    phase = Phase::Dispatch;
    dispatchIdx = 0;
}

void
SynthWorkload::enterHandler()
{
    if (!walkRng.chance(p.repeatHandlerProb))
        curFunc = &code->function(static_cast<std::uint32_t>(
            funcSampler.sample(walkRng)));
    blockOffset = 0;
    instrIdx = 0;
    curBlock = &code->block(curFunc->firstBlock);
    loopRemaining = curBlock->loopIters;
}

void
SynthWorkload::attachMemOp(MicroOp &op, const BlockInfo &bi)
{
    if (!walkRng.chance(code->memProb()))
        return;
    Addr vaddr;
    if (bi.cls == DataClass::Hot &&
        walkRng.chance(p.preferredLineProb)) {
        vaddr = bi.preferredLine;
    } else {
        vaddr = data.sample(bi.cls, walkRng);
    }
    op.vaddr = vaddr;
    op.mem = walkRng.chance(code->storeFraction()) ? MicroOp::MemKind::Store
                                              : MicroOp::MemKind::Load;
}

void
SynthWorkload::nextInto(MicroOp &op)
{
    op = MicroOp{};
    if (phase == Phase::Dispatch) {
        op.pc = kDispatcherPc + dispatchIdx * CodeLayout::kInstrBytes;
        if (dispatchIdx + 1 < kDispatchLen) {
            ++dispatchIdx;
            return;
        }
        // Indirect call into the Zipf-selected handler.
        enterHandler();
        op.isBranch = true;
        op.isIndirect = true;
        op.branchTaken = true;
        op.branchTarget = curFunc->entry;
        phase = Phase::Block;
        dispatchIdx = 0;
        return;
    }

    const FunctionInfo &fi = *curFunc;
    const BlockInfo &bi = *curBlock;

    op.pc = bi.pc + instrIdx * CodeLayout::kInstrBytes;
    bool last_instr = instrIdx + 1 >= bi.numInstrs;

    if (!last_instr) {
        attachMemOp(op, bi);
        ++instrIdx;
        return;
    }

    // Terminating instruction of the block iteration: a branch.
    op.isBranch = true;

    if (loopRemaining > 1) {
        // Back edge of a loop: highly predictable taken branch.
        --loopRemaining;
        instrIdx = 0;
        op.branchTaken = true;
        op.branchTarget = bi.pc;
        return;
    }

    bool taken = walkRng.chance(bi.takenProb);
    // Taken branches skip the next block (control-flow divergence);
    // fall-through executes it.
    std::uint32_t advance = taken ? 2 : 1;
    std::uint32_t next_offset = blockOffset + advance;

    if (next_offset >= fi.numBlocks) {
        // Return to the dispatcher.
        op.branchTaken = true;
        op.branchTarget = kDispatcherPc;
        phase = Phase::Dispatch;
        dispatchIdx = 0;
        return;
    }

    // A function's blocks are contiguous in the layout.
    curBlock += advance;
    op.branchTaken = taken;
    op.branchTarget = curBlock->pc;
    blockOffset = next_offset;
    instrIdx = 0;
    loopRemaining = curBlock->loopIters;
}

} // namespace garibaldi
