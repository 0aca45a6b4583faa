/**
 * @file
 * Robustness tests: multi-seed statistical stability of sampled
 * estimates, short-log GHR reconstruction, bimodal predictor mode
 * (zero history bits), SimPoint parameter boundaries, degenerate
 * cache geometries, and the fault-tolerance layer — truncated and
 * bit-flipped artifacts, fault-injected campaigns, watchdog timeouts,
 * and the campaign kill-and-resume round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/branch_reconstructor.hh"
#include "core/livepoint_store.hh"
#include "core/sampled_sim.hh"
#include "core/warmup.hh"
#include "harness/campaign.hh"
#include "harness/manifest.hh"
#include "harness/parallel_run.hh"
#include "simpoint/simpoint.hh"
#include "trace/trace.hh"
#include "util/checksum.hh"
#include "util/content_store.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "workload/synthetic.hh"

namespace rsr
{
namespace
{

std::vector<std::uint8_t>
slurpFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spillFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

/** A small, fast campaign config rooted at a fresh temp directory. */
harness::CampaignConfig
smallCampaign(const char *tag)
{
    harness::CampaignConfig cfg;
    cfg.outDir = std::string(::testing::TempDir()) + "/rsr_campaign_" + tag;
    cfg.workloads = {"twolf", "vpr", "gcc"};
    cfg.policies = {"none", "smarts"};
    cfg.insts = 60'000;
    cfg.clusters = 3;
    cfg.clusterSize = 500;
    cfg.machine = core::MachineConfig::scaledDefault();
    cfg.threads = 1;
    cfg.maxRetries = 0;
    cfg.backoffMs = 1;
    // Fresh manifest regardless of leftovers from a previous test run.
    std::remove(harness::CampaignRunner::manifestPath(cfg.outDir).c_str());
    return cfg;
}

TEST(Robustness, EstimatesStableAcrossScheduleSeeds)
{
    // Different cluster placements: SMARTS estimates should scatter
    // around a common value, each within a loose band of the pooled mean.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("vpr"));
    core::SampledConfig cfg;
    cfg.totalInsts = 600'000;
    cfg.regimen = {20, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();

    std::vector<double> means;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        cfg.scheduleSeed = seed;
        auto smarts = core::FunctionalWarmup::smarts();
        means.push_back(
            core::runSampled(prog, *smarts, cfg).estimate.mean);
    }
    const double pooled = core::mean(means);
    for (double m : means)
        EXPECT_LT(std::fabs(m - pooled) / pooled, 0.15);
}

TEST(Robustness, GhrReconstructionWithShortLog)
{
    // Fewer logged conditionals than history bits: the reconstructed GHR
    // must combine the pre-skip GHR with the few logged outcomes.
    branch::PredictorParams pp;
    pp.phtEntries = 256;
    pp.historyBits = 8;
    pp.btbEntries = 16;
    pp.rasEntries = 4;
    branch::GsharePredictor truth(pp), rsr(pp);

    truth.setGhr(0b10110011);
    core::SkipLog log;
    log.ghrAtStart = 0b10110011;
    for (bool taken : {true, false, true}) {
        truth.warmApply(0x100, isa::BranchKind::Conditional, taken, 0x200);
        log.branches.push_back(
            {0x100, 0x200, isa::BranchKind::Conditional, taken});
    }
    core::BranchReconstructor recon(rsr);
    recon.begin(log);
    EXPECT_EQ(rsr.ghr(), truth.ghr());
    recon.end();
}

TEST(Robustness, ZeroHistoryBitsIsBimodal)
{
    // historyBits = 0 degenerates gshare into a per-PC bimodal table:
    // indices ignore outcomes entirely.
    branch::PredictorParams pp;
    pp.phtEntries = 256;
    pp.historyBits = 0;
    pp.btbEntries = 16;
    pp.rasEntries = 4;
    branch::GsharePredictor bp(pp);
    const auto idx_before = bp.phtIndex(0x1230);
    for (int i = 0; i < 10; ++i)
        bp.update(0x1230, isa::BranchKind::Conditional, (i % 2) == 0,
                  0x2000);
    EXPECT_EQ(bp.ghr(), 0u);
    EXPECT_EQ(bp.phtIndex(0x1230), idx_before);
    // Distinct PCs map to distinct entries (no history xor).
    EXPECT_NE(bp.phtIndex(0x1230), bp.phtIndex(0x1234));
}

TEST(Robustness, BimodalSampledRunWorksEndToEnd)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig cfg;
    cfg.totalInsts = 300'000;
    cfg.regimen = {10, 2000};
    cfg.machine = core::MachineConfig::scaledDefault();
    cfg.machine.bp.historyBits = 0;
    auto rsr = core::ReverseReconstructionWarmup::full(0.2);
    const auto r = core::runSampled(prog, *rsr, cfg);
    EXPECT_EQ(r.clusterIpc.size(), 10u);
    EXPECT_GT(r.estimate.mean, 0.0);
}

TEST(Robustness, SimPointMaxKOne)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    simpoint::SimPointConfig cfg;
    cfg.intervalSize = 2000;
    cfg.maxK = 1;
    const auto sel = simpoint::pickSimPoints(prog, 100'000, cfg);
    EXPECT_EQ(sel.k, 1u);
    EXPECT_DOUBLE_EQ(sel.weights[0], 1.0);
}

TEST(Robustness, SimPointBicThresholdExtremes)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("gcc"));
    simpoint::SimPointConfig low;
    low.intervalSize = 2000;
    low.maxK = 12;
    low.bicThreshold = 0.0; // accept the first (smallest) k
    const auto sel_low = simpoint::pickSimPoints(prog, 150'000, low);

    simpoint::SimPointConfig high = low;
    high.bicThreshold = 1.0; // demand the best score
    const auto sel_high = simpoint::pickSimPoints(prog, 150'000, high);
    EXPECT_LE(sel_low.k, sel_high.k);
}

TEST(Robustness, SingleSetCacheReconstruction)
{
    // Degenerate geometry: one set, fully associative behaviour.
    cache::CacheParams p;
    p.sizeBytes = 64 * 8;
    p.assoc = 8;
    p.lineBytes = 64;
    p.writePolicy = cache::WritePolicy::WriteThroughNoAllocate;
    cache::Cache fwd(p), rev(p);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 100; ++i)
        stream.push_back((i * 7 % 20) * 64);
    for (auto a : stream)
        fwd.access(a, false);
    rev.beginReconstruction();
    for (auto it = stream.rbegin(); it != stream.rend(); ++it)
        rev.reconstructRef(*it);
    for (std::uint64_t line = 0; line < 20; ++line)
        EXPECT_EQ(fwd.recencyOf(line * 64), rev.recencyOf(line * 64));
}

TEST(Robustness, DirectMappedWholeHierarchy)
{
    // Assoc-1 everywhere still runs a full sampled simulation.
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig cfg;
    cfg.totalInsts = 200'000;
    cfg.regimen = {8, 1500};
    cfg.machine = core::MachineConfig::scaledDefault();
    cfg.machine.hier.il1.assoc = 1;
    cfg.machine.hier.dl1.assoc = 1;
    cfg.machine.hier.l2.assoc = 1;
    auto rsr = core::ReverseReconstructionWarmup::full(1.0);
    const auto r = core::runSampled(prog, *rsr, cfg);
    EXPECT_EQ(r.clusterIpc.size(), 8u);
}

TEST(Robustness, TruncatedTraceThrowsCorruptInput)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    const std::string path =
        std::string(::testing::TempDir()) + "/rsr_trunc.trc";
    ASSERT_EQ(trace::recordTrace(prog, 5'000, path), 5'000u);

    auto bytes = slurpFile(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes.resize(bytes.size() - 16); // tear the tail off the payload
    spillFile(path, bytes);

    EXPECT_THROW(trace::TraceReader reader(path), CorruptInputError);
    std::remove(path.c_str());
}

/** Capture a tiny live-point store and save it under TempDir. */
std::string
savedSmallStore(const char *tag)
{
    const auto prog = workload::buildSynthetic(
        workload::standardWorkloadParams("twolf"));
    core::SampledConfig cfg;
    cfg.totalInsts = 60'000;
    cfg.regimen = {3, 500};
    cfg.machine = core::MachineConfig::scaledDefault();
    auto smarts = core::FunctionalWarmup::smarts();
    const auto store = core::LivePointStore::create(prog, *smarts, cfg,
                                                    "twolf", "smarts");
    const std::string path = std::string(::testing::TempDir()) +
                             "/rsr_store_" + tag + ".lvpt";
    store.saveFile(path);
    return path;
}

TEST(Robustness, BitFlippedLivePointStoreThrowsCorruptInput)
{
    const std::string path = savedSmallStore("flip");

    // Sanity: the pristine file loads and replays.
    EXPECT_NO_THROW(harness::replayStoreParallel(
        core::LivePointStore::loadFile(path), 1));

    const auto pristine = slurpFile(path);
    ASSERT_GT(pristine.size(), 64u);
    // A flip anywhere — index metadata, a blob header, blob payload —
    // must be refused at load; damaged state is never silently replayed.
    for (std::size_t pos : {std::size_t{9}, pristine.size() / 3,
                            pristine.size() / 2, pristine.size() - 2}) {
        auto bytes = pristine;
        bytes[pos] ^= 0x10;
        spillFile(path, bytes);
        EXPECT_THROW(core::LivePointStore::loadFile(path),
                     CorruptInputError)
            << "flip at " << pos;
    }
    std::remove(path.c_str());
}

TEST(Robustness, LivePointStoreWithCorruptRobSizeThrowsCorruptInput)
{
    // A store whose recorded ROB size has a high bit flipped but whose
    // checksums are intact (as a faulty writer would leave it) must be
    // refused at load, before any replay sizes its timing-core rings
    // from it.
    const std::string path = savedSmallStore("badrob");
    const core::LivePointStore store = core::LivePointStore::loadFile(path);
    const BlobStoreReader reader(slurpFile(path));
    auto index = reader.index();

    // The core fields lead with fetch, dispatch, issue and retire width,
    // then the ROB size, as little-endian u32s.
    const auto &c = store.meta().machine.core;
    std::vector<std::uint8_t> lead;
    for (const std::uint32_t v : {c.fetchWidth, c.dispatchWidth,
                                  c.issueWidth, c.retireWidth, c.robSize})
        for (int i = 0; i < 4; ++i)
            lead.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    const auto at = std::search(index.begin(), index.end(), lead.begin(),
                                lead.end());
    ASSERT_NE(at, index.end());
    ASSERT_EQ(std::search(at + 1, index.end(), lead.begin(), lead.end()),
              index.end());
    at[16 + 2] ^= 0x10; // robSize ^= 1 << 20
    // Re-seal the index frame: tag, version and length (16 bytes), then
    // the payload checksum.
    constexpr std::size_t header = 4 + 4 + 8 + 8;
    ASSERT_GE(at - index.begin(), std::ptrdiff_t{header});
    const std::uint64_t sum = fnv64(index.data() + header,
                                    index.size() - header);
    for (int i = 0; i < 8; ++i)
        index[16 + i] = static_cast<std::uint8_t>(sum >> (8 * i));

    BlobStoreWriter writer;
    for (const auto &e : store.entries()) {
        writer.add(reader.blob(e.stateHash));
        writer.add(reader.blob(e.traceHash));
        if (e.hasContext)
            writer.add(reader.blob(e.contextHash));
    }
    spillFile(path, writer.finish(index));
    try {
        core::LivePointStore::loadFile(path);
        FAIL() << "store with a flipped robSize bit accepted";
    } catch (const CorruptInputError &e) {
        EXPECT_NE(std::string(e.what()).find("core.rob_size"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Robustness, TruncatedLivePointStoreThrowsCorruptInput)
{
    const std::string path = savedSmallStore("trunc");
    auto bytes = slurpFile(path);
    ASSERT_GT(bytes.size(), 64u);
    // Torn at the header, inside the index, and near the tail.
    for (std::size_t keep : {std::size_t{10}, std::size_t{40},
                             bytes.size() - 16}) {
        auto torn = bytes;
        torn.resize(keep);
        spillFile(path, torn);
        EXPECT_THROW(core::LivePointStore::loadFile(path),
                     CorruptInputError)
            << "truncated to " << keep;
    }
    std::remove(path.c_str());
}

TEST(Robustness, VersionSkewedLivePointStoreIsRejected)
{
    const std::string path = savedSmallStore("skew");
    auto bytes = slurpFile(path);
    bytes[4] += 1; // container version word (follows the 'RSRS' magic)
    spillFile(path, bytes);
    try {
        core::LivePointStore::loadFile(path);
        FAIL() << "version-skewed store accepted";
    } catch (const CorruptInputError &e) {
        // The message must name the version mismatch so a user knows to
        // recapture rather than suspect disk corruption.
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Robustness, FaultInjectedLivePointLoadFailsTyped)
{
    const std::string path = savedSmallStore("fault");

    // Injected I/O failure: the read itself fails with the retryable
    // IoError, not a crash or a half-parsed store.
    {
        FaultConfig fc;
        fc.seed = 7;
        fc.ioFailProb = 1.0;
        ScopedFaultInjection guard(fc);
        EXPECT_THROW(core::LivePointStore::loadFile(path), IoError);
    }

    // Injected payload corruption: caught by the container's checksums.
    {
        FaultConfig fc;
        fc.seed = 7;
        fc.corruptProb = 1.0;
        ScopedFaultInjection guard(fc);
        EXPECT_THROW(core::LivePointStore::loadFile(path),
                     CorruptInputError);
    }

    // Disarmed again: the pristine file still loads.
    EXPECT_NO_THROW(core::LivePointStore::loadFile(path));
    std::remove(path.c_str());
}

TEST(Robustness, FaultInjectedCampaignRecordsFailuresThenResumes)
{
    auto cfg = smallCampaign("faulty");
    cfg.faults.seed = 0xfa017;
    cfg.faults.ioFailProb = 0.7; // most result writes fail, no retries

    harness::CampaignRunner first(cfg);
    const auto r1 = first.run();
    EXPECT_EQ(r1.total, 6u);
    EXPECT_GT(r1.failed, 0u);
    EXPECT_FALSE(r1.allComplete());
    EXPECT_EQ(r1.exitStatus(), 2);

    // Every failure is in the manifest with the io taxonomy kind.
    const auto state = harness::loadManifest(
        harness::CampaignRunner::manifestPath(cfg.outDir));
    std::uint64_t manifest_failed = 0;
    for (const auto &[id, job] : state.jobs) {
        if (job.status == harness::JobStatus::Failed) {
            ++manifest_failed;
            EXPECT_EQ(job.errorKind, "io") << id;
            EXPECT_FALSE(job.error.empty()) << id;
        }
    }
    EXPECT_EQ(manifest_failed, r1.failed);

    // Resume with faults off: completed jobs are skipped, the rest run.
    cfg.faults = FaultConfig{};
    harness::CampaignRunner second(cfg);
    const auto r2 = second.run(/*resume=*/true);
    EXPECT_EQ(r2.skipped, r1.completed);
    EXPECT_TRUE(r2.allComplete());
    EXPECT_EQ(r2.exitStatus(), 0);
}

TEST(Robustness, WatchdogTimesOutSlowJobs)
{
    auto cfg = smallCampaign("timeout");
    cfg.workloads = {"twolf"};
    cfg.policies = {"none"};
    cfg.jobTimeoutSec = 1e-6; // expires before the first cluster

    harness::CampaignRunner runner(cfg);
    const auto r = runner.run();
    EXPECT_EQ(r.total, 1u);
    EXPECT_EQ(r.failed, 1u);

    const auto state = harness::loadManifest(
        harness::CampaignRunner::manifestPath(cfg.outDir));
    ASSERT_EQ(state.jobs.count(0), 1u);
    EXPECT_EQ(state.jobs.at(0).status, harness::JobStatus::TimedOut);
    EXPECT_EQ(state.jobs.at(0).errorKind, "timeout");
}

TEST(Robustness, CampaignKillAndResumeRoundTrip)
{
    const auto cfg = smallCampaign("killresume");
    const auto manifest =
        harness::CampaignRunner::manifestPath(cfg.outDir);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: run the campaign to completion (it won't get to).
        try {
            harness::CampaignRunner runner(cfg);
            runner.run();
        } catch (...) {
        }
        _exit(0);
    }

    // Parent: wait until at least one job is durably complete, then
    // SIGKILL the child mid-campaign.
    bool saw_complete = false;
    for (int i = 0; i < 3000 && !saw_complete; ++i) {
        usleep(10'000);
        try {
            const auto state = harness::loadManifest(manifest);
            for (const auto &[id, job] : state.jobs)
                if (job.status == harness::JobStatus::Complete)
                    saw_complete = true;
        } catch (const SimError &) {
            // Manifest not there yet or header still in flight.
        }
    }
    kill(child, SIGKILL);
    int wstatus = 0;
    waitpid(child, &wstatus, 0);
    ASSERT_TRUE(saw_complete) << "child never completed a job";

    // Resume: completed jobs must be skipped, the rest must finish.
    harness::CampaignRunner resumed(cfg);
    const auto r = resumed.run(/*resume=*/true);
    EXPECT_GE(r.skipped, 1u);
    EXPECT_TRUE(r.allComplete());
    EXPECT_EQ(r.completed + r.skipped, r.total);
    EXPECT_EQ(r.exitStatus(), 0);
}

TEST(Robustness, CampaignStopFlagLeavesResumableManifest)
{
    // The SIGINT/SIGTERM path without the signal: a raised stop flag
    // halts dispatch before any new job starts, the manifest stays
    // durable, and a later resume finishes exactly the stopped work.
    auto cfg = smallCampaign("stopflag");
    std::atomic<bool> stop{true}; // raised before the first dispatch
    cfg.stopFlag = &stop;

    harness::CampaignRunner stopped(cfg);
    const auto r1 = stopped.run();
    EXPECT_EQ(r1.total, 6u);
    EXPECT_EQ(r1.stopped, 6u);
    EXPECT_EQ(r1.completed, 0u);
    EXPECT_FALSE(r1.allComplete());
    EXPECT_EQ(r1.exitStatus(), 2); // incomplete, by design

    // Stopped jobs left no manifest entries: nothing half-recorded.
    const auto state = harness::loadManifest(
        harness::CampaignRunner::manifestPath(cfg.outDir));
    for (const auto &[id, job] : state.jobs)
        EXPECT_NE(job.status, harness::JobStatus::Complete);

    // Lower the flag and resume: every stopped job runs to completion.
    stop.store(false);
    harness::CampaignRunner resumed(cfg);
    const auto r2 = resumed.run(/*resume=*/true);
    EXPECT_TRUE(r2.allComplete());
    EXPECT_EQ(r2.stopped, 0u);
    EXPECT_EQ(r2.exitStatus(), 0);
}

TEST(Robustness, ResumeRejectsMismatchedCampaign)
{
    auto cfg = smallCampaign("fingerprint");
    cfg.workloads = {"twolf"};
    cfg.policies = {"none"};
    harness::CampaignRunner first(cfg);
    EXPECT_TRUE(first.run().allComplete());

    auto other = cfg;
    other.policies = {"smarts"}; // different matrix, same directory
    harness::CampaignRunner second(other);
    EXPECT_THROW(second.run(/*resume=*/true), UserError);
}

TEST(Robustness, FaultInjectorIsDeterministicPerSeed)
{
    FaultConfig fc;
    fc.seed = 42;
    fc.ioFailProb = 0.5;
    std::vector<bool> a, b;
    {
        ScopedFaultInjection guard(fc);
        for (int i = 0; i < 64; ++i)
            a.push_back(FaultInjector::global().shouldFailIo("site:x"));
    }
    {
        ScopedFaultInjection guard(fc);
        for (int i = 0; i < 64; ++i)
            b.push_back(FaultInjector::global().shouldFailIo("site:x"));
    }
    EXPECT_EQ(a, b);
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

} // namespace
} // namespace rsr
