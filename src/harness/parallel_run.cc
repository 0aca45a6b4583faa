#include "parallel_run.hh"

#include <algorithm>
#include <memory>
#include <numeric>

#include "core/phase_driver.hh"
#include "core/statistics.hh"
#include "harness/thread_pool.hh"
#include "util/timer.hh"

namespace rsr::harness
{

namespace
{

/**
 * Shared-nothing replay accumulation: each worker owns a ReplayStatShard
 * (scalar sums, order-free) and a ReplayArena (a reused private machine
 * that store tasks restore into; in-process tasks bring their own), and
 * per-cluster results land in padded commit slots indexed by cluster —
 * never by completion order. The only cross-worker writes are the
 * disjoint slot commits, each on its own cache line.
 */
struct ReplayLanes
{
    /** @param workers pool worker count (0 for the serial path). */
    explicit ReplayLanes(std::size_t clusters, unsigned workers)
        : slots(clusters), stats(workers),
          arenas(static_cast<std::size_t>(workers) + 1)
    {
    }

    /** The calling thread's arena (producer thread = slot 0). */
    core::ReplayArena &
    myArena()
    {
        return arenas[static_cast<std::size_t>(ThreadPool::workerIndex()) +
                      1];
    }

    /** The calling pool worker's stat shard. Only valid from a task
     *  submitted to *this run's* pool — the serial path must pass
     *  `stats.shard(-1)` explicitly (see SerialSink). */
    core::ReplayStatShard &
    myShard()
    {
        return stats.shard(ThreadPool::workerIndex());
    }

    /** Replay @p task into @p shard and the task's commit slot. */
    void
    replay(core::ClusterReplayTask &task,
           const core::MachineConfig &machine, core::ReplayArena &arena,
           core::ReplayStatShard &shard)
    {
        std::uint64_t recon = 0;
        double secs = 0.0;
        const uarch::RunResult rr =
            core::replayCluster(task, machine, arena, &recon, &secs);
        shard.insts += rr.insts;
        shard.cycles += rr.cycles;
        shard.branchMispredicts += rr.branchMispredicts;
        shard.reconUpdates += recon;
        shard.measureSeconds += secs;
        // rsrlint: commit-zone — per-cluster slot, disjoint by index.
        slots[task.index].ipc = rr.ipc();
        slots[task.index].seconds = secs;
    }

    /** Deterministic merge: slots in index order, shards in shard order. */
    void
    fold(core::SampledResult &res) const
    {
        for (const core::ClusterCommitSlot &slot : slots)
            res.clusterIpc.push_back(slot.ipc);
        const core::ReplayStatShard total = stats.merged();
        res.hotInsts += total.insts;
        res.hotCycles += total.cycles;
        res.branchMispredicts += total.branchMispredicts;
        res.phases.measureInsts += total.insts;
        res.phases.measureSeconds += total.measureSeconds;
    }

    std::vector<core::ClusterCommitSlot> slots;
    core::ShardedReplayStats stats;
    std::vector<core::ReplayArena> arenas;
};

/** Runs every replay task inline on the producing thread. */
class SerialSink : public core::ReplaySink
{
  public:
    SerialSink(const core::MachineConfig &machine, ReplayLanes &lanes)
        : machine(machine), lanes(lanes)
    {}

    void
    onCluster(core::ClusterReplayTask task) override
    {
        // Always the producer arena/shard: the serial path may itself be
        // running on an *outer* pool's worker (the policy sweep does
        // this), whose index must not select into this run's lanes.
        lanes.replay(task, machine, lanes.arenas[0],
                     lanes.stats.shard(-1));
    }

  private:
    const core::MachineConfig &machine;
    ReplayLanes &lanes;
};

/**
 * Hands each replay task to a pool worker, weighted by trace length so
 * placement favours the least-loaded lane and long clusters spread out.
 */
class PoolSink : public core::ReplaySink
{
  public:
    PoolSink(ThreadPool &pool, const core::MachineConfig &machine,
             ReplayLanes &lanes)
        : pool(pool), machine(machine), lanes(lanes)
    {}

    void
    onCluster(core::ClusterReplayTask task) override
    {
        const std::uint64_t weight = task.trace.size();
        auto t = std::make_shared<core::ClusterReplayTask>(
            std::move(task));
        pool.submit(
            [this, t] {
                lanes.replay(*t, machine, lanes.myArena(),
                             lanes.myShard());
            },
            weight);
    }

  private:
    ThreadPool &pool;
    const core::MachineConfig &machine;
    ReplayLanes &lanes;
};

} // namespace

core::SampledResult
runSampledParallel(const func::Program &program,
                   core::WarmupPolicy &policy,
                   const core::SampledConfig &config, unsigned jobs,
                   std::uint64_t steal_seed)
{
    WallTimer timer;
    core::ClusterScheduleDriver driver(program, policy, config);
    const std::size_t n = driver.schedule().size();

    core::SampledResult res;
    if (jobs <= 1) {
        ReplayLanes lanes(n, 0);
        SerialSink sink(config.machine, lanes);
        res = driver.runDeferred(sink);
        lanes.fold(res);
        policy.addReconstructionWork(lanes.stats.merged().reconUpdates);
    } else {
        ReplayLanes lanes(n, jobs);
        // Pool declared after the lanes so in-flight replays finish (and
        // abandoned ones are discarded) before the result slots die if
        // the front half throws.
        ThreadPool pool(jobs, steal_seed);
        PoolSink sink(pool, config.machine, lanes);
        res = driver.runDeferred(sink);
        pool.wait();
        lanes.fold(res);
        policy.addReconstructionWork(lanes.stats.merged().reconUpdates);
    }

    res.warmWork = policy.work();
    res.estimate = core::summarizeClusters(res.clusterIpc);
    res.seconds = timer.seconds();
    return res;
}

core::SampledResult
replayStoreParallel(const core::LivePointStore &store,
                    const core::MachineConfig &machine_config,
                    unsigned jobs, std::uint64_t steal_seed)
{
    WallTimer timer;
    const std::size_t n = store.clusterCount();
    if (jobs == 0)
        jobs = 1;

    // The whole task list is known up front, so submit longest cluster
    // first: the classic LPT heuristic keeps the tail short — no worker
    // idles while one lane finishes a giant cluster submitted last.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&store](std::size_t a, std::size_t b) {
                         return store.entries()[a].cluster.size >
                                store.entries()[b].cluster.size;
                     });

    ReplayLanes lanes(n, jobs);
    ThreadPool pool(jobs, steal_seed);
    for (std::size_t i : order) {
        // Out-of-order consumer pass: each worker decodes and measures
        // its cluster independently (makeReplayTask is const).
        pool.submit(
            [&store, &machine_config, &lanes, i] {
                core::ClusterReplayTask task = store.makeReplayTask(i);
                lanes.replay(task, machine_config, lanes.myArena(),
                             lanes.myShard());
            },
            store.entries()[i].cluster.size);
    }
    pool.wait();

    core::SampledResult res;
    lanes.fold(res);
    res.warmWork.reconstructionUpdates +=
        lanes.stats.merged().reconUpdates;
    res.estimate = core::summarizeClusters(res.clusterIpc);
    res.seconds = timer.seconds();
    return res;
}

core::SampledResult
replayStoreParallel(const core::LivePointStore &store, unsigned jobs)
{
    return replayStoreParallel(store, store.meta().machine, jobs);
}

std::vector<PolicySweepEntry>
runPolicySweep(const func::Program &program,
               const std::vector<std::string> &policy_names,
               const core::SampledConfig &config, unsigned jobs,
               std::uint64_t steal_seed)
{
    // Validate every name up front so a typo late in the list cannot
    // waste the whole sweep.
    std::vector<PolicySweepEntry> out(policy_names.size());
    for (std::size_t i = 0; i < policy_names.size(); ++i) {
        out[i].cliName = policy_names[i];
        out[i].displayName =
            core::makePolicyByName(policy_names[i])->name();
    }

    ThreadPool pool(jobs == 0 ? 1 : jobs, steal_seed);
    for (std::size_t i = 0; i < out.size(); ++i) {
        pool.submit([&, i] {
            const auto policy = core::makePolicyByName(out[i].cliName);
            // rsrlint: commit-zone — per-policy slot, disjoint by index.
            out[i].result =
                runSampledParallel(program, *policy, config, 1);
        });
    }
    pool.wait();
    return out;
}

} // namespace rsr::harness
