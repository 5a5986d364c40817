/**
 * @file
 * The synthetic workload engine: a stochastic walk over the generated
 * CFG that emits MicroOps.  Execution alternates between a dispatcher
 * (indirect call to a Zipf-selected handler — the request-dispatch
 * pattern of server software) and handler bodies whose blocks touch
 * the data regions according to their class.
 */

#ifndef GARIBALDI_WORKLOADS_SYNTH_WORKLOAD_HH
#define GARIBALDI_WORKLOADS_SYNTH_WORKLOAD_HH

#include <cstddef>
#include <memory>

#include "common/rng.hh"
#include "workloads/code_layout.hh"
#include "workloads/data_space.hh"
#include "workloads/microop.hh"
#include "workloads/workload_params.hh"

namespace garibaldi
{

/** A deterministic, infinite MicroOp stream for one workload instance. */
class SynthWorkload
{
  public:
    /** Virtual PC of the dispatcher loop. */
    static constexpr Addr kDispatcherPc = 0x00300000;
    /** Instructions emitted per dispatch iteration (incl. the call). */
    static constexpr unsigned kDispatchLen = 4;

    /**
     * @param params workload description
     * @param seed instance seed; distinct (workload, core) instances
     *        produce distinct but statistically identical streams
     * @param layout the code image of @p params, as makeLayout() builds
     *        it; streams of one workload may share it
     */
    SynthWorkload(const WorkloadParams &params, std::uint64_t seed,
                  std::shared_ptr<const CodeLayout> layout);

    /** The code image of @p params, a function of the params alone. */
    static std::shared_ptr<const CodeLayout>
    makeLayout(const WorkloadParams &params);

    /** Produce the next retired instruction. */
    MicroOp
    next()
    {
        MicroOp op;
        nextInto(op);
        return op;
    }

    /**
     * Produce the next @p n instructions into @p out — identical to
     * @p n calls of next(); the simulator pulls micro-ops in chunks.
     */
    void
    fill(MicroOp *out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            nextInto(out[i]);
    }

    /** Stream name for reports. */
    const char *name() const { return p.name.c_str(); }

    const WorkloadParams &params() const { return p; }
    const CodeLayout &layout() const { return *code; }

  private:
    enum class Phase : std::uint8_t { Dispatch, Block };

    void enterHandler();
    /** Write the next instruction over @p op, in place: building it
     *  on the stack and copying it out costs a store-forwarding stall
     *  per micro-op. */
    void nextInto(MicroOp &op);
    void attachMemOp(MicroOp &op, const BlockInfo &bi);

    WorkloadParams p;
    Pcg32 walkRng;
    std::shared_ptr<const CodeLayout> code;
    DataSpace data;
    ZipfSampler funcSampler;

    Phase phase = Phase::Dispatch;
    unsigned dispatchIdx = 0;
    /** The walk's position, kept as pointers into the shared layout so
     *  an op does not re-index the function and block arrays. */
    const FunctionInfo *curFunc = nullptr;
    const BlockInfo *curBlock = nullptr;
    std::uint32_t blockOffset = 0; //!< block index within the function
    unsigned instrIdx = 0;
    unsigned loopRemaining = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_WORKLOADS_SYNTH_WORKLOAD_HH
