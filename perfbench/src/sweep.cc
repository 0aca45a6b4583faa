/**
 * @file
 * design_sweep: capture-once / replay-many from a live-point store. Each
 * cycle captures gcc under R$BP(20%) with LivePointStore::create and
 * saveFile, then loadFile and replays K core-only machine configs with
 * replayStoreParallel(jobs = 1). Capture writes the store and snapshot
 * layers, replay reads them, and replay bypasses the functional model and
 * the warm-up policy entirely.
 */

#include <cstdio>
#include <map>
#include <optional>

#include "bench.hh"
#include "core/config_file.hh"
#include "core/livepoint_store.hh"
#include "core/phase_driver.hh"
#include "core/warmup.hh"
#include "harness/parallel_run.hh"
#include "util/checksum.hh"
#include "workload/synthetic.hh"

namespace perfbench
{

namespace
{

using rsr::core::LivePointStore;
using rsr::core::SampledResult;
using Scope = SpanRecorder::Scope;

constexpr std::uint64_t kInsts = 4'000'000;
constexpr std::uint64_t kClusters = 200;
constexpr std::uint64_t kClusterSize = 3000;
const char *const kPolicy = "rsr20";

/** The design points as `core.*` overrides: the capture machine first,
 *  then core-only variants that one store can serve. */
const std::vector<std::vector<std::string>> kOverrides = {
    {},
    {"core.rob_size=128"},
    {"core.issue_width=2", "core.retire_width=2"},
    {"core.rob_size=32", "core.iq_size=16"},
};

std::vector<rsr::core::MachineConfig>
designPoints()
{
    std::vector<rsr::core::MachineConfig> points;
    for (const auto &set : kOverrides) {
        rsr::core::MachineConfig mc = benchMachine();
        for (const std::string &kv : set) {
            const std::size_t eq = kv.find('=');
            rsr::core::applyMachineOption(mc, kv.substr(0, eq),
                                          kv.substr(eq + 1));
        }
        points.push_back(mc);
    }
    return points;
}

std::string
captureRecord(const LivePointStore &store, const SampledResult &front)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "store_hash=%s bytes=%zu clusters=%zu skipped=%llu "
                  "logged=%llu recon=%llu dedup=%a",
                  rsr::checksumHex(store.storeHash()).c_str(),
                  store.serialize().size(), store.clusterCount(),
                  static_cast<unsigned long long>(front.skippedInsts),
                  static_cast<unsigned long long>(
                      front.warmWork.loggedRecords),
                  static_cast<unsigned long long>(
                      front.warmWork.reconstructionUpdates),
                  store.dedupRatio());
    return buf;
}

/** replayStoreParallel(jobs = 1) rebuilt from the public calls. */
SampledResult
tracedReplay(const LivePointStore &store,
             const rsr::core::MachineConfig &machine, SpanRecorder &rec)
{
    SampledResult res;
    rsr::core::ReplayArena arena;
    for (std::size_t i = 0; i < store.clusterCount(); ++i) {
        rsr::core::ClusterReplayTask task;
        {
            Scope s(rec, "store.decode");
            task = store.makeReplayTask(i);
        }
        std::uint64_t recon = 0;
        rsr::uarch::RunResult rr;
        {
            Scope s(rec, "uarch");
            rr = rsr::core::replayCluster(task, machine, arena, &recon);
        }
        res.clusterIpc.push_back(rr.ipc());
        res.hotInsts += rr.insts;
        res.hotCycles += rr.cycles;
        res.branchMispredicts += rr.branchMispredicts;
        res.warmWork.reconstructionUpdates += recon;
    }
    res.estimate = rsr::core::summarizeClusters(res.clusterIpc);
    return res;
}

class DesignSweep : public Workload
{
  public:
    std::vector<std::string>
    generators() const override
    {
        return {"gcc"};
    }

    void
    setup(Context &) override
    {
        program = rsr::workload::buildSynthetic(
            rsr::workload::standardWorkloadParams("gcc"));
        points = designPoints();
    }

    void run(Context &ctx) override;

  private:
    rsr::func::Program program;
    std::vector<rsr::core::MachineConfig> points;
};

void
DesignSweep::run(Context &ctx)
{
    rsr::core::SampledConfig cfg;
    cfg.totalInsts = kInsts;
    cfg.regimen.numClusters = kClusters;
    cfg.regimen.clusterSize = kClusterSize;
    cfg.scheduleSeed = mixSeed(ctx.seed, 3);
    cfg.machine = benchMachine();
    const std::string path = ctx.outDir + "/design_sweep.lvpt";
    const double k = static_cast<double>(points.size());

    std::vector<double> capture_s, point_s;
    // The first cycle's capture and design-point results.
    SampledResult first_front;
    std::vector<SampledResult> first_results;
    double traced_secs = 0.0, untraced_secs = 0.0;
    // Self seconds per span name, summed over the traced cycles.
    std::map<std::string, double> span_s;
    std::uint64_t decoded = 0, measured = 0, store_bytes = 0;
    double dedup = 0.0;
    unsigned traced_cycles = 0;
    LayerShares shares;

    const std::int64_t window = nowNs();
    for (unsigned cycle = 0;; ++cycle) {
        if (cycle > 0 &&
            (ctx.oneRound || secondsSince(window) >= ctx.seconds))
            break;
        try {
            ctx.book.attempt();
            const std::int64_t t0 = nowNs();
            const auto policy = rsr::core::makePolicyByName(kPolicy);
            SampledResult front;
            LivePointStore store = LivePointStore::create(
                program, *policy, cfg, "gcc", kPolicy, &front);
            store.saveFile(path);
            const double cap = secondsSince(t0);
            capture_s.push_back(cap);
            ctx.book.check("capture", captureRecord(store, front));
            if (cycle == 0) {
                first_front = front;
                store_bytes = store.serialize().size();
                dedup = store.dedupRatio();
            }

            const std::int64_t t1 = nowNs();
            const LivePointStore loaded = LivePointStore::loadFile(path);
            std::vector<SampledResult> results;
            for (const auto &mc : points) {
                ctx.book.attempt();
                results.push_back(
                    rsr::harness::replayStoreParallel(loaded, mc, 1));
            }
            const double sweep = secondsSince(t1);
            point_s.push_back(sweep / k);
            std::vector<std::string> records;
            for (std::size_t i = 0; i < results.size(); ++i) {
                records.push_back(resultRecord(results[i]));
                ctx.book.check("point" + std::to_string(i), records[i]);
            }
            if (cycle == 0)
                first_results = results;

            if (!ctx.spans)
                continue;
            // The same cycle, traced call by call.
            const std::uint32_t op = ctx.spans->beginOp();
            const std::int64_t t2 = nowNs();
            SampledResult tfront;
            std::optional<LivePointStore> tstore;
            {
                Scope s(*ctx.spans, "op");
                const auto tpolicy = rsr::core::makePolicyByName(kPolicy);
                {
                    Scope c(*ctx.spans, "store.create");
                    tstore.emplace(LivePointStore::create(
                        program, *tpolicy, cfg, "gcc", kPolicy, &tfront));
                }
                {
                    Scope c(*ctx.spans, "store.save");
                    tstore->saveFile(path);
                }
                const LivePointStore tloaded = [&] {
                    Scope c(*ctx.spans, "store.load");
                    return LivePointStore::loadFile(path);
                }();
                for (std::size_t i = 0; i < points.size(); ++i) {
                    const SampledResult r =
                        tracedReplay(tloaded, points[i], *ctx.spans);
                    measured += r.hotInsts;
                    if (resultRecord(r) != records[i])
                        ctx.book.fail("point" + std::to_string(i) +
                                      ": traced run differs: '" +
                                      resultRecord(r) + "' vs '" +
                                      records[i] + "'");
                }
                decoded += tloaded.clusterCount() * points.size();
            }
            traced_secs += secondsSince(t2);
            untraced_secs += cap + sweep;
            // Outside the timed block: the record serializes the store.
            if (captureRecord(*tstore, tfront) !=
                captureRecord(store, front))
                ctx.book.fail("capture: traced run differs");
            const auto self = ctx.spans->selfSeconds(op);
            for (const auto &[name, secs] : self)
                span_s[name] += secs;
            shares.add(self);
            ++traced_cycles;
        } catch (const rsr::SimError &e) {
            ctx.book.fail(std::string("design_sweep cycle: ") + e.what());
        }
    }

    // Cross-path identity: capture's front half plus the first design
    // point replayed from the store equals a direct deferred run of that
    // config.
    {
        ctx.book.attempt();
        const auto policy = rsr::core::makePolicyByName(kPolicy);
        rsr::core::SampledConfig direct_cfg = cfg;
        direct_cfg.machine = points[0];
        const std::string direct = resultRecord(
            rsr::harness::runSampledParallel(program, *policy, direct_cfg,
                                             1));
        SampledResult combined =
            first_results.empty() ? SampledResult{} : first_results[0];
        combined.skippedInsts = first_front.skippedInsts;
        combined.warmWork.functionalUpdates =
            first_front.warmWork.functionalUpdates;
        combined.warmWork.loggedRecords = first_front.warmWork.loggedRecords;
        combined.warmWork.reconstructionUpdates +=
            first_front.warmWork.reconstructionUpdates;
        if (resultRecord(combined) != direct)
            ctx.book.fail("capture + point0 differs from a direct run: '" +
                          resultRecord(combined) + "' vs '" + direct + "'");
    }

    const double cap_op_s = opTime(capture_s);
    const double point_op_s = opTime(point_s);
    std::printf("design_sweep: %zu cycles  capture_s %.4f  "
                "sweep_points_per_s %.3f  (K = %zu)\n",
                capture_s.size(), cap_op_s, 1.0 / point_op_s, points.size());

    Metrics &m = ctx.metrics;
    if (!ctx.spans) {
        m["base_ms"] = cap_op_s * 1e3;
        m["fast_ms"] = point_op_s * 1e3;
        return;
    }
    if (first_results.size() == points.size()) {
        std::vector<ServePoint> serve_points;
        for (std::size_t i = 0; i < points.size(); ++i) {
            ServePoint sp;
            sp.request.workload = "gcc";
            sp.request.policy = kPolicy;
            sp.request.insts = kInsts;
            sp.request.clusters = kClusters;
            sp.request.clusterSize = kClusterSize;
            sp.request.seed = cfg.scheduleSeed;
            sp.request.overrides = kOverrides[i];
            sp.request.canonicalize();
            sp.expected = first_results[i];
            serve_points.push_back(std::move(sp));
        }
        measureServe(ctx, serve_points);
    }
    const double n = static_cast<double>(traced_cycles);
    const double clusters = static_cast<double>(kClusters);
    m["warmup.rsr_logged_records"] =
        static_cast<double>(first_front.warmWork.loggedRecords);
    m["reconstruct.rsr_updates"] =
        static_cast<double>(first_front.warmWork.reconstructionUpdates);
    m["capture.ms_per_cluster"] =
        first_front.phases.captureSeconds * 1e3 / clusters;
    m["capture.snapshot_bytes"] =
        static_cast<double>(first_front.phases.peakSnapshotBytes);
    m["store.create_s"] = span_s["store.create"] / n;
    m["store.save_s"] = span_s["store.save"] / n;
    m["store.bytes"] = static_cast<double>(store_bytes);
    m["store.dedup_ratio"] = dedup;
    m["store.load_s"] = span_s["store.load"] / n;
    m["store.decode_us_per_cluster"] =
        span_s["store.decode"] / static_cast<double>(decoded) * 1e6;
    m["uarch.measure_ns"] =
        span_s["uarch"] / static_cast<double>(measured) * 1e9;
    m["tracing_overhead"] = traced_secs / untraced_secs;
    shares.publish(m);
}

} // namespace

std::unique_ptr<Workload>
makeDesignSweep()
{
    return std::make_unique<DesignSweep>();
}

} // namespace perfbench
