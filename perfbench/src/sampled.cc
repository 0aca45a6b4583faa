/**
 * @file
 * The two direct sampled-simulation workloads. Both run S$BP and
 * R$BP(20%) interleaved on gcc and mcf, single-threaded:
 *
 *   sparse_skip  long skips, few clusters, inline runSampled() — the
 *                paper's regime, where the functional step, the policy's
 *                observation of skipped instructions and the reverse
 *                reconstruction do nearly all the work;
 *   dense_run    short skips, many clusters, deferred
 *                runSampledParallel(jobs = 1) — the timing model and
 *                per-cluster capture do most of the work.
 *
 * The traced run drives the same ops through the public phase objects
 * of core/phase_driver.hh with a span around each call, and must
 * reproduce the untraced outputs bit for bit.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hh"
#include "core/phase_driver.hh"
#include "core/warmup.hh"
#include "func/funcsim.hh"
#include "harness/parallel_run.hh"
#include "util/random.hh"
#include "workload/synthetic.hh"

namespace perfbench
{

namespace
{

using rsr::core::SampledResult;
using Scope = SpanRecorder::Scope;

struct Population
{
    std::uint64_t insts;
    std::uint64_t clusters;
    std::uint64_t clusterSize;
};

// skip:measure = 15.92M / 80K, about 200:1.
constexpr Population kSparse{16'000'000, 40, 2000};
// skip:measure = 3.4M / 0.6M, about 5.7:1.
constexpr Population kDense{4'000'000, 200, 3000};

const char *const kGenerators[] = {"gcc", "mcf"};
const char *const kPolicies[] = {"smarts", "rsr20"};

/** runSampled() rebuilt from the phase objects, one span per call. */
SampledResult
tracedInline(const rsr::func::Program &program,
             rsr::core::WarmupPolicy &policy,
             const rsr::core::SampledConfig &config, SpanRecorder &rec)
{
    using namespace rsr::core;
    Scope op(rec, "op");
    ClusterScheduleDriver schedule(program, policy, config);
    SampledResult res;
    rsr::func::FuncSim fs(program);
    Machine machine(config.machine);
    policy.clearWork();
    policy.attach(machine);
    const std::uint64_t iline_mask =
        ~std::uint64_t{machine.hier.il1().params().lineBytes - 1};
    SkipPhase skip(fs, policy, nullptr, iline_mask, res.phases);
    ReconstructPhase reconstruct(policy, res.phases);
    MeasurePhase measure(machine, config.machine.core, res.phases);

    std::uint64_t pos = 0;
    for (const Cluster &cluster : schedule.schedule()) {
        {
            Scope s(rec, "skip");
            skip.run(cluster.start - pos);
        }
        res.skippedInsts += cluster.start - pos;
        std::unique_ptr<MeasureContext> ctx;
        {
            Scope s(rec, "reconstruct");
            reconstruct.run();
            ctx = policy.makeMeasureContext();
            if (ctx)
                ctx->attach(machine);
        }
        FuncSource src(fs);
        rsr::uarch::RunResult rr;
        {
            Scope s(rec, "uarch");
            rr = measure.run(src, cluster.size);
        }
        {
            Scope s(rec, "reconstruct");
            if (ctx)
                policy.addReconstructionWork(ctx->detach(machine));
            policy.afterCluster();
        }
        res.clusterIpc.push_back(rr.ipc());
        res.hotInsts += rr.insts;
        res.hotCycles += rr.cycles;
        res.branchMispredicts += rr.branchMispredicts;
        pos = cluster.start + cluster.size;
    }
    res.estimate = summarizeClusters(res.clusterIpc);
    res.warmWork = policy.work();
    return res;
}

/** runSampledParallel(jobs = 1) rebuilt from the phase objects. */
SampledResult
tracedDeferred(const rsr::func::Program &program,
               rsr::core::WarmupPolicy &policy,
               const rsr::core::SampledConfig &config, SpanRecorder &rec)
{
    using namespace rsr::core;
    Scope op(rec, "op");
    ClusterScheduleDriver schedule(program, policy, config);
    SampledResult res;
    rsr::func::FuncSim fs(program);
    Machine machine(config.machine);
    policy.clearWork();
    policy.attach(machine);
    const std::uint64_t iline_mask =
        ~std::uint64_t{machine.hier.il1().params().lineBytes - 1};
    SkipPhase skip(fs, policy, nullptr, iline_mask, res.phases);
    ReconstructPhase reconstruct(policy, res.phases);
    CapturePhase capture(fs, policy, machine, iline_mask, res.phases);
    ReplayArena arena;

    std::uint64_t pos = 0;
    std::uint64_t recon_updates = 0;
    std::size_t index = 0;
    for (const Cluster &cluster : schedule.schedule()) {
        {
            Scope s(rec, "skip");
            skip.run(cluster.start - pos);
        }
        res.skippedInsts += cluster.start - pos;
        {
            Scope s(rec, "reconstruct");
            reconstruct.run();
        }
        ClusterReplayTask task;
        {
            Scope s(rec, "capture");
            task = capture.run(index, cluster);
        }
        rsr::uarch::RunResult rr;
        std::uint64_t recon = 0;
        {
            Scope s(rec, "uarch");
            rr = replayCluster(task, config.machine, arena, &recon);
        }
        recon_updates += recon;
        res.clusterIpc.push_back(rr.ipc());
        res.hotInsts += rr.insts;
        res.hotCycles += rr.cycles;
        res.branchMispredicts += rr.branchMispredicts;
        res.phases.measureInsts += rr.insts;
        pos = cluster.start + cluster.size;
        ++index;
    }
    policy.addReconstructionWork(recon_updates);
    res.warmWork = policy.work();
    res.estimate = summarizeClusters(res.clusterIpc);
    return res;
}

class SampledWorkload : public Workload
{
  public:
    explicit SampledWorkload(bool deferred)
        : deferred(deferred), pop(deferred ? kDense : kSparse)
    {}

    std::vector<std::string>
    generators() const override
    {
        return {std::begin(kGenerators), std::end(kGenerators)};
    }

    void
    setup(Context &ctx) override
    {
        gens.clear();
        for (const char *name : kGenerators) {
            Gen g;
            g.name = name;
            g.program = rsr::workload::buildSynthetic(
                rsr::workload::standardWorkloadParams(name));
            g.truth = truthIpc(ctx.goldenDir, name, pop.insts);
            gens.push_back(std::move(g));
        }
    }

    void run(Context &ctx) override;

  private:
    struct Gen
    {
        std::string name;
        rsr::func::Program program;
        double truth = 0.0;
    };

    /** Per-(round, generator) timings of the traced run. */
    struct TracedRound
    {
        double noneSkip = 0.0;
        std::uint64_t skipped = 0;
        double policySkip[2] = {0.0, 0.0};
        double reconstruct = 0.0;
        std::uint64_t logged = 0;
        double uarch = 0.0;
        std::uint64_t measured = 0;
        double capture = 0.0;
        std::uint64_t clusters = 0;
    };

    SampledResult
    untraced(const Gen &g, rsr::core::WarmupPolicy &policy,
             const rsr::core::SampledConfig &cfg) const
    {
        return deferred
                   ? rsr::harness::runSampledParallel(g.program, policy,
                                                      cfg, 1)
                   : rsr::core::runSampled(g.program, policy, cfg);
    }

    SampledResult
    traced(const Gen &g, rsr::core::WarmupPolicy &policy,
           const rsr::core::SampledConfig &cfg, SpanRecorder &rec) const
    {
        return deferred ? tracedDeferred(g.program, policy, cfg, rec)
                        : tracedInline(g.program, policy, cfg, rec);
    }

    bool deferred;
    Population pop;
    std::vector<Gen> gens;
};

void
SampledWorkload::run(Context &ctx)
{
    rsr::core::SampledConfig cfg;
    cfg.totalInsts = pop.insts;
    cfg.regimen.numClusters = pop.clusters;
    cfg.regimen.clusterSize = pop.clusterSize;
    cfg.scheduleSeed = mixSeed(ctx.seed, deferred ? 2 : 1);
    if (!deferred) {
        // Systematic placement with a seeded phase, as SMARTS samples:
        // with 40 uniformly placed clusters the longest skip, and with
        // it the R$BP log and the peak RSS, varied by 25% across seeds.
        const std::uint64_t period = pop.insts / pop.clusters;
        const std::uint64_t phase = rsr::Rng(cfg.scheduleSeed)
                                        .below(period - pop.clusterSize + 1);
        for (std::uint64_t i = 0; i < pop.clusters; ++i)
            cfg.explicitSchedule.push_back(
                {phase + i * period, pop.clusterSize});
    }
    cfg.machine = benchMachine();

    // Per round: summed host seconds of each policy over the generators.
    std::vector<double> policy_secs[2];
    std::vector<double> speedups;
    double err_sum[2] = {0.0, 0.0};
    double traced_secs = 0.0, untraced_secs = 0.0;
    std::vector<TracedRound> traced_rounds;
    std::vector<std::map<std::string, double>> pending;
    LayerShares shares;
    // Deterministic counts of the first round, summed over generators.
    std::uint64_t updates = 0, logged = 0, recon = 0, snapshot_bytes = 0;

    const std::int64_t window = nowNs();
    for (unsigned round = 0;; ++round) {
        if (round > 0 &&
            (ctx.oneRound || secondsSince(window) >= ctx.seconds))
            break;
        double secs[2] = {0.0, 0.0};
        for (const Gen &g : gens) {
            TracedRound tr;
            // Alternate which policy goes first so host drift within a
            // round hits both equally.
            for (unsigned k = 0; k < 2; ++k) {
                const unsigned p = (round + k) % 2;
                const std::string key = g.name + "/" + kPolicies[p];
                const auto policy = rsr::core::makePolicyByName(kPolicies[p]);
                ctx.book.attempt();
                const std::int64_t t0 = nowNs();
                SampledResult res;
                try {
                    res = untraced(g, *policy, cfg);
                } catch (const rsr::SimError &e) {
                    ctx.book.fail(key + ": " + e.what());
                    continue;
                }
                const double dt = secondsSince(t0);
                secs[p] += dt;
                const std::string record = resultRecord(res);
                ctx.book.check(key, record);
                if (round == 0) {
                    err_sum[p] +=
                        std::fabs(res.estimate.mean - g.truth) / g.truth;
                    if (p == 0) {
                        updates += res.warmWork.functionalUpdates;
                    } else {
                        logged += res.warmWork.loggedRecords;
                        recon += res.warmWork.reconstructionUpdates;
                    }
                    snapshot_bytes = std::max(snapshot_bytes,
                                              res.phases.peakSnapshotBytes);
                }
                if (!ctx.spans)
                    continue;

                const std::uint32_t op = ctx.spans->beginOp();
                const std::int64_t t1 = nowNs();
                const SampledResult tres =
                    traced(g, *policy, cfg, *ctx.spans);
                traced_secs += secondsSince(t1);
                untraced_secs += dt;
                if (resultRecord(tres) != record)
                    ctx.book.fail(key + ": traced run differs: '" +
                                  resultRecord(tres) + "' vs '" + record +
                                  "'");
                const auto self = ctx.spans->selfSeconds(op);
                auto at = [&self](const char *n) {
                    const auto it = self.find(n);
                    return it == self.end() ? 0.0 : it->second;
                };
                tr.policySkip[p] = at("skip");
                if (p == 1) {
                    tr.reconstruct = at("reconstruct");
                    tr.logged = tres.warmWork.loggedRecords;
                }
                tr.uarch += at("uarch");
                tr.measured += tres.hotInsts;
                tr.capture += at("capture");
                tr.clusters += tres.clusterIpc.size();
                pending.push_back(self);
            }
            if (ctx.spans) {
                // The functional step alone: the same schedule under
                // NoWarmup, whose skip fast-forwards without observing.
                rsr::core::NoWarmup none;
                const std::uint32_t op = ctx.spans->beginOp();
                const SampledResult nres =
                    traced(g, none, cfg, *ctx.spans);
                const auto self = ctx.spans->selfSeconds(op);
                tr.noneSkip = self.count("skip") ? self.at("skip") : 0.0;
                tr.skipped = nres.skippedInsts;
                for (const auto &s : pending)
                    shares.add(s, tr.noneSkip);
                pending.clear();
                traced_rounds.push_back(tr);
            }
        }
        policy_secs[0].push_back(secs[0]);
        policy_secs[1].push_back(secs[1]);
        if (secs[1] > 0.0)
            speedups.push_back(secs[0] / secs[1]);
    }

    const double pop_minsts =
        static_cast<double>(pop.insts * gens.size()) * 1e-6;
    const double smarts_s = opTime(policy_secs[0]);
    const double rsr_s = opTime(policy_secs[1]);
    const double n_gens = static_cast<double>(gens.size());
    std::printf("%s: %zu rounds  smarts %.4f s (%.2f Minst/s)  rsr20 %.4f s "
                "(%.2f Minst/s)  rsr_speedup %.4f  smarts_err %.6f  "
                "rsr_err %.6f\n",
                deferred ? "dense_run" : "sparse_skip", policy_secs[0].size(),
                smarts_s, pop_minsts / smarts_s, rsr_s, pop_minsts / rsr_s,
                median(speedups), err_sum[0] / n_gens, err_sum[1] / n_gens);

    Metrics &m = ctx.metrics;
    if (!ctx.spans) {
        m["base_ms"] = smarts_s * 1e3;
        m["fast_ms"] = rsr_s * 1e3;
        return;
    }

    std::vector<double> step, smarts_obs, rsr_obs, recon_ns, uarch_ns;
    double recon_ms = 0.0, capture_ms = 0.0;
    for (const TracedRound &tr : traced_rounds) {
        const double skipped = static_cast<double>(tr.skipped);
        step.push_back(tr.noneSkip / skipped * 1e9);
        smarts_obs.push_back((tr.policySkip[0] - tr.noneSkip) / skipped *
                             1e9);
        rsr_obs.push_back((tr.policySkip[1] - tr.noneSkip) / skipped * 1e9);
        if (tr.logged)
            recon_ns.push_back(tr.reconstruct /
                               static_cast<double>(tr.logged) * 1e9);
        uarch_ns.push_back(tr.uarch / static_cast<double>(tr.measured) *
                           1e9);
        recon_ms += tr.reconstruct * 1e3;
        capture_ms += tr.capture * 1e3 / static_cast<double>(tr.clusters);
    }
    const double n_traced = static_cast<double>(traced_rounds.size());
    m["func.step_ns"] = median(step);
    m["warmup.smarts_observe_ns"] = median(smarts_obs);
    m["warmup.rsr_observe_ns"] = median(rsr_obs);
    m["reconstruct.rsr_ms"] = recon_ms / n_traced * n_gens;
    m["reconstruct.ns_per_record"] = median(recon_ns);
    m["uarch.measure_ns"] = median(uarch_ns);
    m["capture.ms_per_cluster"] = capture_ms / n_traced;

    m["warmup.smarts_updates"] = static_cast<double>(updates);
    m["warmup.rsr_logged_records"] = static_cast<double>(logged);
    m["reconstruct.rsr_updates"] = static_cast<double>(recon);
    m["reconstruct.useful_ratio"] =
        logged ? static_cast<double>(recon) / static_cast<double>(logged)
               : 0.0;
    m["capture.snapshot_bytes"] = static_cast<double>(snapshot_bytes);
    m["est.smarts_err"] = err_sum[0] / n_gens;
    m["est.rsr_err"] = err_sum[1] / n_gens;
    m["rsr_speedup"] = median(speedups);
    m["tracing_overhead"] = traced_secs / untraced_secs;
    shares.publish(m);
}

} // namespace

std::unique_ptr<Workload>
makeSparseSkip()
{
    return std::make_unique<SampledWorkload>(false);
}

std::unique_ptr<Workload>
makeDenseRun()
{
    return std::make_unique<SampledWorkload>(true);
}

std::vector<std::pair<std::string, std::uint64_t>>
truthPopulations()
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const Population &p : {kSparse, kDense})
        for (const char *g : kGenerators)
            out.emplace_back(g, p.insts);
    return out;
}

} // namespace perfbench
