#include "core/core_model.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

CoreModel::CoreModel(CoreId core, const CoreParams &params_,
                     MemoryHierarchy &hierarchy, std::uint64_t seed)
    : coreId(core), params(params_), mem(hierarchy),
      pt(core, mix64(seed ^ (0x517cc1b7 + core))),
      tlb(params_.tlb),
      rng(seed ^ 0xdeadbeef, core + 1)
{
    if (params.issueWidth == 0)
        fatal("issue width must be non-zero");
}

void
CoreModel::charge(CpiComponent c, Cycle n)
{
    if (n == 0)
        return;
    cycle += n;
    stat.cpi.charge(c, n);
}

CpiComponent
CoreModel::fetchComponent(HitLevel level) const
{
    switch (level) {
      case HitLevel::L2:
        return CpiComponent::IFetchL2;
      case HitLevel::LLC:
        return CpiComponent::IFetchLLC;
      default:
        return CpiComponent::IFetchMem;
    }
}

CpiComponent
CoreModel::dataComponent(HitLevel level) const
{
    switch (level) {
      case HitLevel::L2:
        return CpiComponent::DataL2;
      case HitLevel::LLC:
        return CpiComponent::DataLLC;
      default:
        return CpiComponent::DataMem;
    }
}

void
CoreModel::chargeFetch(const MicroOp &op)
{
    Addr fetch_line = lineAlign(op.pc);
    if (fetch_line == lastFetchLine)
        return; // same-line fetches ride the existing fetch
    lastFetchLine = fetch_line;
    ++stat.ifetchLines;

    charge(CpiComponent::Itlb, tlb.accessInstr(pageNumber(op.pc)));

    MemAccess acc;
    acc.core = coreId;
    acc.pc = op.pc;
    acc.paddr = pt.translate(fetch_line);
    acc.isInstr = true;
    Transaction txn(acc, cycle);
    mem.execute(txn);
    if (txn.level == HitLevel::L1)
        return; // L1I hits are covered by the base pipeline

    // Frontend stalls are serial: the pipeline cannot run ahead of the
    // fetch, so the full latency is exposed minus the decoupled fetch
    // buffer's slack.
    Cycle latency = txn.latency();
    Cycle stall = latency > params.fetchHideCycles
                      ? latency - params.fetchHideCycles : 0;
    charge(fetchComponent(txn.level), stall);
}

void
CoreModel::chargeData(const MicroOp &op)
{
    charge(CpiComponent::Dtlb, tlb.accessData(pageNumber(op.vaddr)));

    MemAccess acc;
    acc.core = coreId;
    acc.pc = op.pc;
    acc.paddr = pt.translate(op.vaddr);
    acc.isInstr = false;
    acc.isWrite = op.mem == MicroOp::MemKind::Store;
    Transaction txn(acc, cycle);
    mem.execute(txn);
    if (txn.level == HitLevel::L1)
        return; // L1 hit latency is part of the base pipeline

    Cycle latency = txn.latency();
    if (acc.isWrite) {
        // Stores retire through the store buffer; only sustained miss
        // pressure leaks into the commit stage.
        Cycle stall = static_cast<Cycle>(
            static_cast<double>(latency) * params.storeCostFraction);
        charge(CpiComponent::Store, stall);
        return;
    }

    // Load miss: model memory-level parallelism.  Misses issued while a
    // previous miss is outstanding overlap with it unless the load is
    // (statistically) dependent on that miss.
    Cycle done = cycle + latency;
    Cycle stall;
    if (cycle < missShadowEnd) {
        if (rng.chance(params.dependentLoadFraction)) {
            stall = latency; // serialized behind the older miss
            missShadowEnd += latency;
        } else {
            stall = done > missShadowEnd ? done - missShadowEnd : 0;
            missShadowEnd = std::max(missShadowEnd, done);
        }
    } else {
        // Lone miss: the ROB hides a window of independent work.
        stall = latency > params.robSlackCycles
                    ? latency - params.robSlackCycles : 0;
        missShadowEnd = done;
    }
    charge(dataComponent(txn.level), stall);
}

void
CoreModel::step(const MicroOp &op)
{
    ++stat.instructions;
    if (++subcycle >= params.issueWidth) {
        subcycle = 0;
        ++cycle;
        stat.cpi.charge(CpiComponent::Base, 1);
    }

    chargeFetch(op);

    if (op.isBranch) {
        ++stat.branches;
        bool mispredicted;
        if (op.isIndirect) {
            Addr predicted = bp.predictIndirect(op.pc);
            mispredicted = predicted != op.branchTarget;
            bp.updateIndirect(op.pc, op.branchTarget);
        } else {
            bool predicted = bp.resolve(op.pc, op.branchTaken);
            mispredicted = predicted != op.branchTaken;
        }
        if (mispredicted) {
            ++stat.mispredicts;
            charge(CpiComponent::Branch, params.mispredictPenalty);
            // The flush refetches the current path.
            lastFetchLine = ~Addr{0};
        }
    }

    if (op.mem == MicroOp::MemKind::Load) {
        ++stat.loads;
        chargeData(op);
    } else if (op.mem == MicroOp::MemKind::Store) {
        ++stat.stores;
        chargeData(op);
    }
}

void
CoreModel::resetStats()
{
    stat = CoreStats{};
    windowStart = cycle;
}

} // namespace garibaldi
