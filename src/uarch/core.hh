/**
 * @file
 * Out-of-order core timing model implementing the paper's Section-4
 * machine: 8-wide fetch/dispatch, 4-wide issue/retire, eight universal
 * fully pipelined function units, 64 in-flight instructions, a 32-entry
 * issue queue, a 64-entry load/store queue, a 7-stage pipeline with a
 * minimum 5-cycle branch misprediction penalty, and architectural
 * checkpoints permitting speculation past at most eight unresolved
 * branches.
 *
 * The model is functional-first (as in SimpleScalar's sim-outorder): it
 * consumes the committed dynamic instruction stream from the functional
 * simulator, predicts each control transfer with the shared branch unit,
 * and charges redirect penalties for mispredictions rather than executing
 * wrong-path instructions.
 */

#ifndef RSR_UARCH_CORE_HH
#define RSR_UARCH_CORE_HH

#include <cstdint>
#include <string>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "func/dyninst.hh"

namespace rsr::uarch
{

/** Core configuration (defaults are the paper's Section-4 machine). */
struct CoreParams
{
    unsigned fetchWidth = 8;
    unsigned dispatchWidth = 8;
    unsigned issueWidth = 4;
    unsigned retireWidth = 4;
    unsigned robSize = 64;
    unsigned iqSize = 32;
    unsigned lsqSize = 64;
    unsigned numFUs = 8;
    /** Fetch-to-dispatch depth (rest of the 7-stage pipe). */
    unsigned frontendDelay = 3;
    unsigned minMispredictPenalty = 5;
    unsigned maxUnresolvedBranches = 8;
    unsigned fetchBufferSize = 16;

    unsigned intAluLat = 1;
    unsigned intMulLat = 3;
    unsigned intDivLat = 20;
    unsigned fpAddLat = 2;
    unsigned fpMulLat = 4;
    unsigned fpDivLat = 12;

    /**
     * Forward store data to younger loads of the same word from the LSQ
     * (bypassing the data cache). Off by default: the paper's
     * SimpleScalar-era model charges every load a cache access, and the
     * reproduction benches are calibrated that way. The ablation harness
     * exercises it on.
     */
    bool storeForwarding = false;
    /** Load-use latency of a forwarded load. */
    unsigned forwardLatency = 1;

    /** Execution latency for @p cls (loads handled by the hierarchy). */
    unsigned latencyFor(isa::OpClass cls) const;

    /** Largest accepted structure size or width (OoOCore::run sizes
     *  its rings from these). */
    static constexpr unsigned maxSize = 1u << 16;

    /**
     * Empty when every structure size and width (fetch, dispatch, issue
     * and retire widths; ROB, IQ, LSQ and fetch-buffer sizes; function
     * units; unresolved-branch limit) is in [1, maxSize]. Otherwise a
     * message naming the first field out of range by its config key: a
     * zero leaves the pipeline unable to make progress, and an
     * over-large size would over-allocate. Callers that take
     * parameters from outside throw their own error kind with it.
     */
    std::string sizeError() const;
};

/** Supplies the committed dynamic instruction stream. */
class InstSource
{
  public:
    virtual ~InstSource() = default;
    /** Produce the next instruction; false when the stream ends. */
    virtual bool next(func::DynInst &out) = 0;
};

/** Outcome of one timing run. */
struct RunResult
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t forwardedLoads = 0;
    /** Cycles in which dispatch stalled on a full ROB/IQ/LSQ or the
     *  unresolved-branch (checkpoint) limit. */
    std::uint64_t dispatchStallCycles = 0;
    /** Cycles in which fetch was blocked (redirects, I-cache misses). */
    std::uint64_t fetchBlockedCycles = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(insts) / cycles : 0.0;
    }
};

/** The out-of-order core. */
class OoOCore
{
  public:
    OoOCore(const CoreParams &params, cache::MemoryHierarchy &hier,
            branch::GsharePredictor &bp);

    /**
     * Simulate up to @p max_insts instructions from @p src, starting from
     * an empty pipeline at cycle 0, and drain. Cache/predictor state in
     * the shared components persists across runs; bus schedules should be
     * cleared by the caller between independent runs.
     */
    RunResult run(InstSource &src, std::uint64_t max_insts);

    const CoreParams &params() const { return params_; }

  private:
    CoreParams params_;
    cache::MemoryHierarchy &hier;
    branch::GsharePredictor &bp;
};

} // namespace rsr::uarch

#endif // RSR_UARCH_CORE_HH
