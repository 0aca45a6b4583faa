/**
 * @file
 * The phase driver: one controller for the hot/cold/warm loop of the
 * paper's Figure 1, decomposed into explicit phase objects —
 *
 *   SkipPhase        functional fast-forward between clusters, feeding
 *                    the warm-up policy and polling the watchdog;
 *   ReconstructPhase the policy's cluster-boundary warm-up work (cache
 *                    reconstruction, log finalization);
 *   CapturePhase     warm-machine copy plus committed trace of one
 *                    cluster, for a timing replay elsewhere;
 *   MeasurePhase     the cycle-accurate out-of-order run of one cluster.
 *
 * ClusterScheduleDriver walks a cluster schedule in one loop — deadline
 * check, SkipPhase, ReconstructPhase — and hands each cluster to one of
 * two per-cluster steps:
 *
 *   measure in place (runInline) — MeasurePhase times the cluster on
 *                   the shared machine the moment it is reached; no
 *                   snapshot is taken. runSampled() and SimPoint
 *                   measurement use this step.
 *   capture (runDeferred) — CapturePhase copies the warm machine,
 *                   records the cluster's committed trace and emits the
 *                   pair as a ClusterReplayTask. The timing replays can
 *                   then run on any thread in any order (see
 *                   harness/parallel_run.hh); replayCluster() times one
 *                   task on its own machine copy. While the trace is
 *                   recorded, the shared machine receives the cluster's
 *                   state effects *functionally* (commit-order warm
 *                   accesses), so deferred results are deterministic and
 *                   independent of the number of replay workers.
 *
 * Warm state becomes bytes only where it leaves the process: the
 * live-point store serializes each task's machine when it persists a
 * cluster, and a task decoded from a store carries those bytes.
 *
 * The two steps differ only in what a timed cluster leaves on the
 * shared machine. Inline, the timing model touches the data cache in
 * out-of-order issue order where capture trains it in commit order, so
 * LRU order within a set can differ; in the golden tests this has not
 * moved a measured number, and every policy without on-demand
 * reconstruction (None, FP, SMARTS, R$) agrees on every cycle and
 * cluster IPC. RBP and R$BP do differ, because their MeasureContext
 * rebuilds predictor entries while the cluster is timed. Inline, that
 * work lands on the shared machine and carries into later clusters:
 * the GHR, RAS and PHT/BTB entries rebuilt from the log, including the
 * PHT entries the timing model's fetch-time predictions demand at the
 * lagging fetch-time history, which commit-order training never
 * indexes. Deferred, it lands on the replay copy only, and the shared
 * machine trains its unreconstructed predictor state through the
 * cluster.
 */

#ifndef RSR_CORE_PHASE_DRIVER_HH
#define RSR_CORE_PHASE_DRIVER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sampled_sim.hh"
#include "func/funcsim.hh"

namespace rsr::core
{

/** Streams committed instructions from the functional simulator. */
class FuncSource : public uarch::InstSource
{
  public:
    explicit FuncSource(func::FuncSim &fs) : fs(fs) {}

    bool
    next(func::DynInst &out) override
    {
        return fs.step(&out);
    }

  private:
    func::FuncSim &fs;
};

/** Streams a stored committed-instruction trace. */
class TraceSource : public uarch::InstSource
{
  public:
    explicit TraceSource(const std::vector<func::DynInst> &trace)
        : trace(trace)
    {}

    bool
    next(func::DynInst &out) override
    {
        if (pos >= trace.size())
            return false;
        out = trace[pos++];
        return true;
    }

  private:
    const std::vector<func::DynInst> &trace;
    std::size_t pos = 0;
};

/**
 * Everything needed to measure one cluster away from the shared machine:
 * the warm machine state, the committed trace, and the policy's
 * measurement-time context (on-demand reconstruction state). Produced by
 * ClusterScheduleDriver::runDeferred() or LivePointStore::makeReplayTask(),
 * consumed by replayCluster(). Exactly one form of warm state is set.
 */
struct ClusterReplayTask
{
    std::size_t index = 0;
    Cluster cluster;
    /** In-process capture: a copy of the shared machine, timed in place. */
    std::unique_ptr<Machine> warm;
    /** Store decode: the serialized machine, restored into an arena. */
    std::vector<std::uint8_t> machineState;
    std::vector<func::DynInst> trace;
    std::unique_ptr<MeasureContext> context;
};

/** Receives replay tasks as the deferred front half produces them. */
class ReplaySink
{
  public:
    virtual ~ReplaySink() = default;
    virtual void onCluster(ClusterReplayTask task) = 0;
};

/**
 * Functional fast-forward over one skip region: runs the functional
 * kernel (FuncSim::execute) with one policy observer per region — none
 * over the policy's unobserved prefix, then the final policy's own
 * observer or the per-record adapter — in chunks that end where the
 * cooperative deadline is polled, and accounts skip work into
 * PhaseCounters.
 */
class SkipPhase
{
  public:
    SkipPhase(func::FuncSim &fs, WarmupPolicy &policy,
              const Deadline *deadline, std::uint64_t iline_mask,
              PhaseCounters &counters)
        : fs(fs), policy(policy), deadline(deadline),
          ilineMask(iline_mask), counters(counters)
    {}

    /** Skip @p skip_len instructions; throws TimeoutError on expiry. */
    void run(std::uint64_t skip_len);

  private:
    func::FuncSim &fs;
    WarmupPolicy &policy;
    const Deadline *deadline;
    std::uint64_t ilineMask;
    PhaseCounters &counters;
};

/** Cluster-boundary warm-up: times the policy's beforeCluster() work. */
class ReconstructPhase
{
  public:
    ReconstructPhase(WarmupPolicy &policy, PhaseCounters &counters)
        : policy(policy), counters(counters)
    {}

    void run();

  private:
    WarmupPolicy &policy;
    PhaseCounters &counters;
};

/**
 * Warm-state capture at one cluster boundary — the producer half of the
 * live-point split. Runs after ReconstructPhase (warm-up applied, the
 * machine is exactly the state a timed cluster would start from) and
 * packages everything a later timing replay needs: a copy of the machine,
 * the policy's measurement context, and the cluster's committed trace.
 * While the trace is recorded, the shared machine receives the cluster's
 * state effects *functionally* in commit order, so the following skip
 * region starts from hot state no matter where or when the timing replay
 * runs. Used by runDeferred() and by the live-point store producer.
 */
class CapturePhase
{
  public:
    CapturePhase(func::FuncSim &fs, WarmupPolicy &policy, Machine &machine,
                 std::uint64_t iline_mask, PhaseCounters &counters)
        : fs(fs), policy(policy), machine(machine),
          ilineMask(iline_mask), counters(counters)
    {}

    /** Capture cluster @p cluster (schedule position @p index). */
    ClusterReplayTask run(std::size_t index, const Cluster &cluster);

  private:
    func::FuncSim &fs;
    WarmupPolicy &policy;
    Machine &machine;
    std::uint64_t ilineMask;
    PhaseCounters &counters;
};

/**
 * Cycle-accurate measurement of one cluster on a given machine: resets
 * the buses, runs the out-of-order core over @p src, and accounts the
 * time and instructions into PhaseCounters.
 */
class MeasurePhase
{
  public:
    MeasurePhase(Machine &machine, const uarch::CoreParams &core_params,
                 PhaseCounters &counters)
        : machine(machine), coreParams(core_params), counters(counters)
    {}

    uarch::RunResult run(uarch::InstSource &src, std::uint64_t n_insts);

  private:
    Machine &machine;
    const uarch::CoreParams &coreParams;
    PhaseCounters &counters;
};

/** Drives the phases over a whole cluster schedule (single-use). */
class ClusterScheduleDriver
{
  public:
    ClusterScheduleDriver(const func::Program &program,
                          WarmupPolicy &policy,
                          const SampledConfig &config);

    const std::vector<Cluster> &schedule() const { return schedule_; }

    /**
     * Measure each cluster in place on the shared machine as it is
     * reached. Bit-identical to the pre-driver controller.
     */
    SampledResult runInline();

    /**
     * Deferred front half: skip + reconstruct + copy + record each
     * cluster, emitting ClusterReplayTasks to @p sink in schedule order.
     * The returned result carries the front-half accounting (skipped
     * instructions, warm work, phase counters); the sink's replays
     * supply the per-cluster timing that harness/parallel_run.hh merges.
     */
    SampledResult runDeferred(ReplaySink &sink);

  private:
    /**
     * The schedule walk both modes share: skip to each cluster, apply
     * the policy's boundary warm-up, then call
     * `step(index, cluster, fs, machine, iline_mask, result)`. The step
     * must leave the functional simulator at the cluster's end and call
     * the policy's afterCluster().
     */
    template <typename Step>
    SampledResult walk(Step &&step);

    const func::Program &program;
    WarmupPolicy &policy;
    const SampledConfig &config;
    std::vector<Cluster> schedule_;
};

/**
 * Cheap per-cluster proxy IPC from one functional pass (the ranked-set /
 * two-phase proxy rank of core/estimator.hh). The pass drives two tiny
 * deterministic models — a direct-mapped 512-set x 64-byte-line tag
 * array probed by instruction lines and data accesses, and a 4096-entry
 * 2-bit bimodal predictor for conditional branches — continuously over
 * the population (so cluster-local counts see warmed proxy state), and
 * scores each candidate cluster as
 *
 *     insts / (insts + 18 * tagMisses + 10 * mispredicts),
 *
 * a crude latency-weighted IPC whose *ordering* across clusters is all
 * the estimators consume. Candidates must be sorted and non-overlapping;
 * the pass stops after the last candidate ends. Costs one functional
 * simulation of the covered prefix — orders of magnitude cheaper than a
 * timing measurement, which is the whole point of ranking by proxy.
 * Polls @p deadline like SkipPhase (TimeoutError on expiry).
 */
std::vector<double>
profileClusterProxies(const func::Program &program,
                      const std::vector<Cluster> &candidates,
                      const Deadline *deadline = nullptr);

/**
 * A worker-private machine reused across replays of stored clusters.
 * Building a Machine allocates every cache array and predictor table;
 * doing that per cluster makes parallel store replay a global-heap
 * contention benchmark instead of a simulation. One arena per replay
 * worker amortizes the allocation: restoreFromBytes() overwrites the
 * entire hierarchy and predictor state (Machine::restore covers both),
 * and replayCluster() resets the buses, so a reused machine is
 * bit-identical to a fresh one. Tasks that carry a live machine never
 * touch the arena.
 */
class ReplayArena
{
  public:
    ReplayArena() = default;

    /** The arena machine for @p machine_config, built on first use. */
    Machine &acquire(const MachineConfig &machine_config);

  private:
    std::unique_ptr<Machine> machine;
};

/**
 * Measure one deferred cluster: attach the measurement context and run
 * the timing model (core parameters from @p machine_config) over the
 * task's trace, starting from the task's warm state. A live task is
 * timed on its own machine, whose hierarchy and predictor parameters
 * must equal @p machine_config's (CorruptInputError otherwise, as a
 * snapshot of the wrong geometry fails to restore). A stored task is
 * restored into the arena machine built from @p machine_config; the
 * restore is total, so the result does not depend on what the arena
 * replayed before, and the arena must be private to the calling thread.
 * Either way the warm state already holds what a skip would have
 * produced, so replay runs with zero functional simulation.
 *
 * @param recon_updates receives the context's on-demand reconstruction
 *        work (0 when the task has no context); may be null.
 * @param seconds receives the wall time of this replay; may be null.
 */
uarch::RunResult replayCluster(ClusterReplayTask &task,
                               const MachineConfig &machine_config,
                               ReplayArena &arena,
                               std::uint64_t *recon_updates = nullptr,
                               double *seconds = nullptr);

} // namespace rsr::core

#endif // RSR_CORE_PHASE_DRIVER_HH
