/**
 * @file
 * Tests for the phase driver's deferred/parallel mode and the harness
 * thread pool: the headline property is that `runSampledParallel` is
 * bit-identical for any worker count, across the paper's whole Table-2
 * policy matrix.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/livepoint_store.hh"
#include "core/phase_driver.hh"
#include "core/warmup.hh"
#include "harness/parallel_run.hh"
#include "harness/thread_pool.hh"
#include "util/error.hh"
#include "util/snapshot.hh"
#include "workload/synthetic.hh"

namespace rsr
{
namespace
{

TEST(ThreadPool, RunsEveryTask)
{
    harness::ThreadPool pool(4);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&sum] { ++sum; });
    pool.wait();
    EXPECT_EQ(sum, 100);
}

TEST(ThreadPool, WaitRethrowsFirstTaskError)
{
    harness::ThreadPool pool(2);
    pool.submit([] { rsr_throw_internal("task failed"); });
    EXPECT_THROW(pool.wait(), InternalError);
    // The pool stays usable after the error is consumed.
    std::atomic<int> sum{0};
    pool.submit([&sum] { ++sum; });
    pool.wait();
    EXPECT_EQ(sum, 1);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    harness::ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<int> sum{0};
    pool.submit([&sum] { ++sum; });
    pool.wait();
    EXPECT_EQ(sum, 1);
}

class ParallelReplay : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        prog = new func::Program(workload::buildSynthetic(
            workload::standardWorkloadParams("gcc")));
        cfg = new core::SampledConfig();
        cfg->totalInsts = 150'000;
        cfg->regimen = {8, 1500};
        cfg->machine = core::MachineConfig::scaledDefault();
    }

    static void
    TearDownTestSuite()
    {
        delete prog;
        delete cfg;
    }

    static func::Program *prog;
    static core::SampledConfig *cfg;
};

func::Program *ParallelReplay::prog = nullptr;
core::SampledConfig *ParallelReplay::cfg = nullptr;

/** The full Table-2 matrix by CLI name. */
const char *const table2Names[] = {
    "none",     "fp20",     "fp40",      "fp80", "scache", "sbp",
    "smarts",   "rcache20", "rcache40",  "rcache80", "rcache100",
    "rbp",      "rsr20",    "rsr40",     "rsr80", "rsr100"};

TEST_F(ParallelReplay, BitIdenticalAcrossJobCountsForAllPolicies)
{
    for (const char *name : table2Names) {
        const auto p1 = core::makePolicyByName(name);
        const auto serial =
            harness::runSampledParallel(*prog, *p1, *cfg, 1);
        const auto p4 = core::makePolicyByName(name);
        const auto parallel =
            harness::runSampledParallel(*prog, *p4, *cfg, 4);

        ASSERT_EQ(serial.clusterIpc.size(), parallel.clusterIpc.size())
            << name;
        for (std::size_t i = 0; i < serial.clusterIpc.size(); ++i)
            ASSERT_EQ(serial.clusterIpc[i], parallel.clusterIpc[i])
                << name << " cluster " << i;
        ASSERT_EQ(serial.estimate.mean, parallel.estimate.mean) << name;
        ASSERT_EQ(serial.estimate.ciLow, parallel.estimate.ciLow)
            << name;
        ASSERT_EQ(serial.estimate.ciHigh, parallel.estimate.ciHigh)
            << name;
        ASSERT_EQ(serial.hotCycles, parallel.hotCycles) << name;
        ASSERT_EQ(serial.branchMispredicts, parallel.branchMispredicts)
            << name;
        ASSERT_EQ(serial.warmWork.totalUpdates(),
                  parallel.warmWork.totalUpdates())
            << name;
    }
}

TEST_F(ParallelReplay, PhaseCountersAreConsistent)
{
    auto policy = core::makePolicyByName("rsr40");
    const auto r = harness::runSampledParallel(*prog, *policy, *cfg, 4);

    EXPECT_EQ(r.phases.skipInsts, r.skippedInsts);
    EXPECT_EQ(r.phases.measureInsts, r.hotInsts);
    EXPECT_EQ(r.hotInsts, 8u * 1500u);
    // In-process replays time live machine copies: nothing is serialized.
    EXPECT_EQ(r.phases.peakSnapshotBytes, 0u);
    EXPECT_GT(r.phases.skipSeconds, 0.0);
    EXPECT_GT(r.phases.measureSeconds, 0.0);
    EXPECT_GT(r.phases.captureSeconds, 0.0);

    // A live-point store is where warm state leaves the process, so its
    // capture serializes every cluster's machine.
    auto store_policy = core::makePolicyByName("rsr40");
    core::SampledResult front;
    core::LivePointStore::create(*prog, *store_policy, *cfg, "gcc", "rsr40",
                                 &front);
    EXPECT_EQ(front.phases.skipInsts, r.phases.skipInsts);
    EXPECT_GT(front.phases.peakSnapshotBytes, 0u);
}

/** Keeps the deferred front half's tasks for a test to replay by hand. */
class CollectSink : public core::ReplaySink
{
  public:
    void
    onCluster(core::ClusterReplayTask task) override
    {
        tasks.push_back(std::move(task));
    }

    std::vector<core::ClusterReplayTask> tasks;
};

std::vector<core::ClusterReplayTask>
captureTasks(const func::Program &prog, const char *policy_name,
             const core::SampledConfig &cfg)
{
    const auto policy = core::makePolicyByName(policy_name);
    core::ClusterScheduleDriver driver(prog, *policy, cfg);
    CollectSink sink;
    driver.runDeferred(sink);
    return std::move(sink.tasks);
}

TEST_F(ParallelReplay, LiveAndSerializedWarmStateReplayIdentically)
{
    // An in-process task is timed on its live machine copy; a store task
    // restores the same state from snapshot bytes. For every Table-2
    // policy the two must measure each cluster bit for bit.
    for (const char *name : table2Names) {
        auto tasks = captureTasks(*prog, name, *cfg);
        ASSERT_EQ(tasks.size(), cfg->regimen.numClusters) << name;
        core::ReplayArena unused;
        for (core::ClusterReplayTask &task : tasks) {
            // Capture hands over a live machine and never serializes.
            ASSERT_TRUE(task.warm) << name;
            ASSERT_TRUE(task.machineState.empty()) << name;
            // Serialize first: the live replay advances the machine.
            std::vector<std::uint8_t> bytes = snapshotToBytes(*task.warm);
            std::uint64_t live_recon = 0;
            const uarch::RunResult live = core::replayCluster(
                task, cfg->machine, unused, &live_recon);

            // The measurement context is reusable: attach() rebuilds
            // its reconstructor from the log it keeps.
            task.warm.reset();
            task.machineState = std::move(bytes);
            core::ReplayArena fresh;
            std::uint64_t stored_recon = 0;
            const uarch::RunResult stored = core::replayCluster(
                task, cfg->machine, fresh, &stored_recon);

            const std::string at =
                std::string(name) + " cluster " + std::to_string(task.index);
            EXPECT_EQ(live.insts, stored.insts) << at;
            EXPECT_EQ(live.cycles, stored.cycles) << at;
            EXPECT_EQ(live.branchMispredicts, stored.branchMispredicts)
                << at;
            EXPECT_EQ(live.condBranches, stored.condBranches) << at;
            EXPECT_EQ(live.loads, stored.loads) << at;
            EXPECT_EQ(live.stores, stored.stores) << at;
            EXPECT_EQ(live.forwardedLoads, stored.forwardedLoads) << at;
            EXPECT_EQ(live.dispatchStallCycles, stored.dispatchStallCycles)
                << at;
            EXPECT_EQ(live.fetchBlockedCycles, stored.fetchBlockedCycles)
                << at;
            EXPECT_EQ(live_recon, stored_recon) << at;
        }
    }
}

TEST_F(ParallelReplay, LiveTaskRejectsMismatchedMachineGeometry)
{
    auto tasks = captureTasks(*prog, "rsr40", *cfg);
    ASSERT_GE(tasks.size(), 4u);
    core::ReplayArena arena;

    core::MachineConfig bigger_l2 = cfg->machine;
    bigger_l2.hier.l2.sizeBytes *= 2;
    EXPECT_THROW(core::replayCluster(tasks[0], bigger_l2, arena),
                 CorruptInputError);

    core::MachineConfig bigger_pht = cfg->machine;
    bigger_pht.bp.phtEntries *= 2;
    EXPECT_THROW(core::replayCluster(tasks[1], bigger_pht, arena),
                 CorruptInputError);

    // The byte path rejects the same mismatch when the restore fails.
    tasks[2].machineState = snapshotToBytes(*tasks[2].warm);
    tasks[2].warm.reset();
    core::ReplayArena store_arena;
    EXPECT_THROW(core::replayCluster(tasks[2], bigger_l2, store_arena),
                 CorruptInputError);

    // Core parameters come from the replay configuration, as for a store.
    core::MachineConfig smaller_rob = cfg->machine;
    smaller_rob.core.robSize /= 2;
    EXPECT_NO_THROW(core::replayCluster(tasks[3], smaller_rob, arena));
}

TEST_F(ParallelReplay, InlineDriverCountersMatchLegacyResult)
{
    // The inline path must keep the legacy accounting intact and fill
    // the new per-phase counters consistently.
    auto policy = core::makePolicyByName("smarts");
    const auto r = core::runSampled(*prog, *policy, *cfg);
    EXPECT_EQ(r.phases.skipInsts, r.skippedInsts);
    EXPECT_EQ(r.phases.measureInsts, r.hotInsts);
    // Clusters are measured in place, so no snapshot is ever taken.
    EXPECT_EQ(r.phases.peakSnapshotBytes, 0u);
}

TEST_F(ParallelReplay, OnDemandReconstructionWorkIsJobIndependent)
{
    auto p1 = core::makePolicyByName("rbp");
    const auto serial = harness::runSampledParallel(*prog, *p1, *cfg, 1);
    auto p4 = core::makePolicyByName("rbp");
    const auto parallel =
        harness::runSampledParallel(*prog, *p4, *cfg, 4);

    EXPECT_GT(serial.warmWork.reconstructionUpdates, 0u);
    EXPECT_EQ(serial.warmWork.reconstructionUpdates,
              parallel.warmWork.reconstructionUpdates);
}

TEST_F(ParallelReplay, PolicySweepMatchesIndividualRuns)
{
    const std::vector<std::string> names{"none", "smarts", "rsr20"};
    const auto sweep =
        harness::runPolicySweep(*prog, names, *cfg, 3);
    ASSERT_EQ(sweep.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        auto policy = core::makePolicyByName(names[i]);
        const auto solo =
            harness::runSampledParallel(*prog, *policy, *cfg, 1);
        EXPECT_EQ(sweep[i].cliName, names[i]);
        EXPECT_EQ(sweep[i].result.estimate.mean, solo.estimate.mean)
            << names[i];
        EXPECT_EQ(sweep[i].result.clusterIpc, solo.clusterIpc)
            << names[i];
    }
}

TEST_F(ParallelReplay, SweepRejectsUnknownPolicyUpFront)
{
    const std::vector<std::string> names{"none", "nonsense"};
    EXPECT_THROW(harness::runPolicySweep(*prog, names, *cfg, 2),
                 UserError);
}

// ---------------------------------------------------------------------
// Work-stealing pool mechanics.
// ---------------------------------------------------------------------

TEST(WorkStealing, WeightedSubmitRunsEveryTask)
{
    harness::ThreadPool pool(3);
    std::atomic<std::uint64_t> sum{0};
    // Wildly skewed weights: placement picks the least-loaded lane, but
    // stealing must drain them all regardless.
    for (std::uint64_t w : {1000u, 1u, 1u, 500u, 1u, 1u, 1u, 250u})
        pool.submit([&sum, w] { sum += w; }, w);
    pool.wait();
    EXPECT_EQ(sum, 1755u);
}

TEST(WorkStealing, WorkerIndexIsStableAndBounded)
{
    // Off-pool threads report -1; pool workers report their own slot in
    // [0, size), consistently across many tasks.
    EXPECT_EQ(harness::ThreadPool::workerIndex(), -1);
    harness::ThreadPool pool(4);
    std::mutex mu;
    std::set<int> seen;
    std::atomic<bool> bad{false};
    for (int i = 0; i < 200; ++i)
        pool.submit([&] {
            const int idx = harness::ThreadPool::workerIndex();
            if (idx < 0 || idx >= 4)
                bad = true;
            std::lock_guard<std::mutex> lk(mu);
            seen.insert(idx);
        });
    pool.wait();
    EXPECT_FALSE(bad);
    EXPECT_GE(seen.size(), 1u);
    EXPECT_EQ(harness::ThreadPool::workerIndex(), -1);
}

TEST(WorkStealing, PoolIsReusableAcrossWaves)
{
    harness::ThreadPool pool(2, 42);
    std::atomic<int> sum{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&sum] { ++sum; });
        pool.wait();
    }
    EXPECT_EQ(sum, 250);
}

TEST(WorkStealing, ArenaReplayMatchesFreshMachine)
{
    // Replaying through a reused arena machine must be bit-identical to
    // a fresh machine per cluster: restore fully overwrites the state.
    auto prog = func::Program(workload::buildSynthetic(
        workload::standardWorkloadParams("gcc")));
    core::SampledConfig cfg;
    cfg.totalInsts = 60'000;
    cfg.regimen = {4, 1000};
    cfg.machine = core::MachineConfig::scaledDefault();

    auto policy = core::makePolicyByName("rsr40");
    const auto store =
        core::LivePointStore::create(prog, *policy, cfg, "gcc", "rsr40");
    ASSERT_GT(store.clusterCount(), 1u);

    core::ReplayArena reused;
    std::uint64_t total_recon = 0;
    for (std::size_t i = 0; i < store.clusterCount(); ++i) {
        auto fresh_task = store.makeReplayTask(i);
        core::ReplayArena fresh;
        std::uint64_t fresh_recon = 0;
        const auto a = core::replayCluster(fresh_task, cfg.machine, fresh,
                                           &fresh_recon);

        auto reused_task = store.makeReplayTask(i);
        std::uint64_t reused_recon = 0;
        const auto b = core::replayCluster(reused_task, cfg.machine,
                                           reused, &reused_recon);
        EXPECT_EQ(a.ipc(), b.ipc()) << i;
        EXPECT_EQ(a.cycles, b.cycles) << i;
        EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << i;
        EXPECT_EQ(fresh_recon, reused_recon) << i;
        total_recon += fresh_recon;
    }
    // rsr40 reconstructs branch state on demand, so the comparison
    // covers the measurement context too.
    EXPECT_GT(total_recon, 0u);
}

/**
 * The satellite stress test: the full Table-2 policy matrix swept at
 * jobs ∈ {1, 2, 7, 16} under randomized steal order must emit a
 * byte-identical CSV. The CSV serializes every per-policy estimate and
 * per-cluster IPC at full precision, so any cross-thread reordering of
 * a single FP accumulation flips a byte.
 */
TEST_F(ParallelReplay, StressByteIdenticalCsvAcrossJobsAndStealOrder)
{
    const std::vector<std::string> names(std::begin(table2Names),
                                         std::end(table2Names));
    const auto csvOf = [&](const std::vector<harness::PolicySweepEntry>
                               &sweep) {
        std::string csv = "policy,mean,ci_low,ci_high,cluster_ipc\n";
        for (const auto &e : sweep) {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "%s,%.17g,%.17g,%.17g",
                          e.cliName.c_str(), e.result.estimate.mean,
                          e.result.estimate.ciLow,
                          e.result.estimate.ciHigh);
            csv += buf;
            for (const double ipc : e.result.clusterIpc) {
                std::snprintf(buf, sizeof(buf), ",%.17g", ipc);
                csv += buf;
            }
            csv += '\n';
        }
        return csv;
    };

    const std::string ref =
        csvOf(harness::runPolicySweep(*prog, names, *cfg, 1));
    ASSERT_NE(ref.find("rsr40"), std::string::npos);

    // Each (jobs, seed) cell randomizes victim selection differently;
    // every cell must reproduce the serial CSV byte for byte.
    const unsigned job_counts[] = {2, 7, 16};
    const std::uint64_t seeds[] = {1, 0xdecafbadULL};
    for (const unsigned jobs : job_counts)
        for (const std::uint64_t seed : seeds) {
            const std::string csv = csvOf(
                harness::runPolicySweep(*prog, names, *cfg, jobs, seed));
            ASSERT_EQ(ref, csv)
                << "CSV diverged at jobs=" << jobs << " seed=" << seed;
        }
}

} // namespace
} // namespace rsr
