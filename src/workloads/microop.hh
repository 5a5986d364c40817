/**
 * @file
 * The unit of work exchanged between workload streams and the core
 * model — the in-memory equivalent of one SIFT trace record.
 */

#ifndef GARIBALDI_WORKLOADS_MICROOP_HH
#define GARIBALDI_WORKLOADS_MICROOP_HH

#include "common/types.hh"

namespace garibaldi
{

/** One retired instruction as the core model sees it. */
struct MicroOp
{
    enum class MemKind : std::uint8_t { None = 0, Load, Store };

    Addr pc = 0;             //!< virtual address of the instruction
    MemKind mem = MemKind::None;
    Addr vaddr = 0;          //!< virtual data address when mem != None
    bool isBranch = false;
    bool branchTaken = false;
    bool isIndirect = false; //!< indirect call/jump (ITTAGE/BTB path)
    Addr branchTarget = 0;   //!< resolved target when taken/indirect
};

} // namespace garibaldi

#endif // GARIBALDI_WORKLOADS_MICROOP_HH
