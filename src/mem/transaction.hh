/**
 * @file
 * The first-class memory transaction that flows through the hierarchy's
 * access pipeline, and the lightweight observer interface the LLC fans
 * events out through.
 *
 * A Transaction carries the request (a MemAccess), the classification
 * the pipeline derives on the way down (cluster, allocation intent,
 * instruction criticality) and the per-level timing legs that sum to
 * the final load-to-use latency.  Stages communicate exclusively
 * through it — there is no hidden state threaded through recursive
 * calls.
 */

#ifndef GARIBALDI_MEM_TRANSACTION_HH
#define GARIBALDI_MEM_TRANSACTION_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/request.hh"

namespace garibaldi
{

/**
 * One access in flight through the pipeline
 * (L1 probe → L2 probe → LLC probe → DRAM fill → upkeep).
 */
struct Transaction
{
    MemAccess req;          //!< the request as issued by the core
    Cycle issued = 0;       //!< core clock when the access was issued

    // ---- derived classification (filled by the pipeline) ------------
    Addr lineAddr = 0;          //!< cache line base of req.paddr
    std::uint32_t cluster = 0;  //!< L2 cluster of the requesting core
    bool allocate = true;       //!< allocate at shared levels on miss
    bool critical = false;      //!< Emissary-style criticality mark

    // ---- timing legs (cycles, summed into the outcome) --------------
    Cycle l1Cycles = 0;         //!< L1 hit / fill-wait leg
    Cycle l2Cycles = 0;         //!< L2 hit / traversal leg
    Cycle llcCycles = 0;        //!< LLC hit / traversal leg (incl. QBS)
    Cycle queueCycles = 0;      //!< LLC bank-port queuing delay
    Cycle dramCycles = 0;       //!< DRAM read leg
    Cycle mshrCycles = 0;       //!< MSHR-pressure penalty

    /**
     * Instant the DRAM fill completes on its channel (0 when the
     * transaction never reached memory).  With dramFedLlcMshrs on,
     * the owning LLC bank's MSHR entry is held until this instant
     * (plus the fill's array write), so channel backpressure — not a
     * request-path latency sum — sets MSHR residency.
     */
    Cycle dramCompletesAt = 0;

    // ---- attribution detail (consumed by the tracer) -----------------
    Cycle dramQueueCycles = 0;  //!< channel-queue share of dramCycles
    std::int8_t dramRowLeg = -1; //!< Dram::RowLeg; -1 = row model off
    bool dramTurned = false; //!< grant crossed a bus turnaround
    bool dramStalledByRefresh = false; //!< grant pushed past a tRFC blast
    std::uint32_t llcBank = 0;  //!< owning LLC bank (set when traced)

    // ---- outcome -----------------------------------------------------
    HitLevel level = HitLevel::L1; //!< deepest level that serviced it
    bool llcAccessed = false;      //!< the request reached the LLC
    bool llcHit = false;           //!< ... and hit there

    Transaction() = default;

    /** Start a transaction for @p acc issued at @p now. */
    Transaction(const MemAccess &acc, Cycle now)
        : req(acc), issued(now), lineAddr(acc.lineAddr()),
          allocate(!acc.isPrefetch)
    {
    }

    /** Total load-to-use latency accumulated so far. */
    Cycle
    latency() const
    {
        return l1Cycles + l2Cycles + llcCycles + queueCycles +
               dramCycles + mshrCycles;
    }

    /** Collapse into the outcome struct the core model consumes. */
    AccessOutcome
    outcome() const
    {
        AccessOutcome out;
        out.latency = latency();
        out.level = level;
        out.llcAccessed = llcAccessed;
        out.llcHit = llcHit;
        return out;
    }
};

/**
 * Observer of demand LLC traffic (monitors, characterization).  A plain
 * virtual interface: fan-out on the demand path is one indirect call
 * per listener, with no std::function allocation or type erasure.
 */
class LlcEventListener
{
  public:
    virtual ~LlcEventListener() = default;

    /** A demand access was serviced by the LLC (after hit/miss). */
    virtual void onLlcAccess(const Transaction &txn, bool hit) = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_TRANSACTION_HH
