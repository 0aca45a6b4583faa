#include "phase_driver.hh"

#include "util/logging.hh"
#include "util/timer.hh"

namespace rsr::core
{

namespace
{

/** Watchdog poll mask: cheap enough to check inside long skips. */
constexpr std::uint64_t deadlineCheckMask = (1u << 16) - 1;

/**
 * Any policy without a kernel observer of its own: rebuild each
 * committed record and hand it to the virtual onSkipInst().
 */
class PolicyAdapter : public func::FetchObserver
{
  public:
    PolicyAdapter(WarmupPolicy &policy, std::uint64_t iline_mask,
                  std::uint64_t last_line)
        : FetchObserver(iline_mask, last_line), policy(policy)
    {}

    void fetch(std::uint64_t) { newBlock = true; }

    void
    commit(std::uint64_t seq, std::uint64_t pc, std::uint64_t next_pc,
           std::uint64_t eff_addr, const isa::Inst &inst)
    {
        policy.onSkipInst(func::makeDynInst(seq, pc, next_pc, eff_addr, inst),
                          newBlock);
        newBlock = false;
    }

  private:
    WarmupPolicy &policy;
    bool newBlock = false;
};

/**
 * Deferred capture's observer: records the committed trace and trains
 * the shared machine functionally, in commit order.
 */
class CaptureRecorder : public FunctionalWarmer
{
  public:
    CaptureRecorder(Machine &machine, std::vector<func::DynInst> &trace,
                    std::uint64_t iline_mask)
        : FunctionalWarmer(machine, true, true, nullptr, iline_mask),
          trace(trace)
    {}

    void
    commit(std::uint64_t seq, std::uint64_t pc, std::uint64_t next_pc,
           std::uint64_t eff_addr, const isa::Inst &inst)
    {
        trace.push_back(func::makeDynInst(seq, pc, next_pc, eff_addr, inst));
    }

  private:
    std::vector<func::DynInst> &trace;
};

/**
 * Run instructions [begin, end) of a skip region through the kernel in
 * chunks that end on the watchdog's poll boundaries, polling @p deadline
 * at every multiple of deadlineCheckMask + 1.
 */
template <class Obs>
void
executeRegion(func::FuncSim &fs, const Deadline *deadline, Obs &obs,
              std::uint64_t begin, std::uint64_t end)
{
    for (std::uint64_t i = begin; i < end;) {
        if (deadline && (i & deadlineCheckMask) == 0 &&
            deadline->expired())
            throw TimeoutError("sampled run exceeded its deadline "
                               "inside a skip region");
        const std::uint64_t stop = std::min(end, (i | deadlineCheckMask) + 1);
        const std::uint64_t done = fs.execute(stop - i, obs);
        rsr_assert(done == stop - i, "workload halted inside a skip region");
        i = stop;
    }
}

} // namespace

void
SkipPhase::run(std::uint64_t skip_len)
{
    WallTimer timer;
    policy.beginSkip(skip_len);

    // Fast-forward the unobserved prefix with no observer; the observed
    // tail starts from the prefix's last I-line, as in a single pass.
    const std::uint64_t observe_from =
        std::min(policy.observeFrom(skip_len), skip_len);
    func::NullObserver none;
    executeRegion(fs, deadline, none, 0, observe_from);
    const std::uint64_t last_line =
        observe_from > 0 ? fs.lastPc() & ilineMask : ~std::uint64_t{0};

    // One observer per region: the final policies' own, else the
    // per-record adapter.
    if (observe_from == skip_len) {
        // Nothing left to observe (NoWarmup).
    } else if (auto *p = dynamic_cast<FunctionalWarmup *>(&policy)) {
        FunctionalWarmer obs = p->observer(ilineMask, last_line);
        executeRegion(fs, deadline, obs, observe_from, skip_len);
    } else if (auto *p =
                   dynamic_cast<ReverseReconstructionWarmup *>(&policy)) {
        SkipLogger obs = p->observer(ilineMask, last_line);
        executeRegion(fs, deadline, obs, observe_from, skip_len);
    } else {
        PolicyAdapter obs(policy, ilineMask, last_line);
        executeRegion(fs, deadline, obs, observe_from, skip_len);
    }
    counters.skipInsts += skip_len;
    counters.skipSeconds += timer.seconds();
}

void
ReconstructPhase::run()
{
    WallTimer timer;
    policy.beforeCluster();
    counters.reconstructSeconds += timer.seconds();
}

uarch::RunResult
MeasurePhase::run(uarch::InstSource &src, std::uint64_t n_insts)
{
    WallTimer timer;
    machine.hier.l1Bus().reset();
    machine.hier.l2Bus().reset();
    uarch::OoOCore core(coreParams, machine.hier, machine.bp);
    const uarch::RunResult rr = core.run(src, n_insts);
    rsr_assert(rr.insts == n_insts, "workload halted inside a cluster");
    counters.measureInsts += rr.insts;
    counters.measureSeconds += timer.seconds();
    return rr;
}

ClusterReplayTask
CapturePhase::run(std::size_t index, const Cluster &cluster)
{
    WallTimer capture;
    ClusterReplayTask task;
    task.index = index;
    task.cluster = cluster;
    // A plain copy: the state stays in this process, so it needs no
    // framing or checksums (a live-point store serializes it later).
    task.warm = std::make_unique<Machine>(machine);
    task.context = policy.makeMeasureContext();

    // Record the cluster's committed trace. The shared machine receives
    // the cluster's state effects functionally, in commit order, so the
    // next skip region begins from hot state no matter where (or when)
    // the timing replay runs. This is what makes the front half — and
    // therefore the whole result — independent of the replay thread
    // count.
    task.trace.reserve(cluster.size);
    {
        CaptureRecorder recorder(machine, task.trace, ilineMask);
        const std::uint64_t done = fs.execute(cluster.size, recorder);
        rsr_assert(done == cluster.size, "workload halted inside a cluster");
    }
    policy.afterCluster();
    counters.captureSeconds += capture.seconds();
    return task;
}

ClusterScheduleDriver::ClusterScheduleDriver(const func::Program &program,
                                             WarmupPolicy &policy,
                                             const SampledConfig &config)
    : program(program), policy(policy), config(config)
{
    if (!config.explicitSchedule.empty()) {
        validateSchedule(config.explicitSchedule, config.totalInsts);
        schedule_ = config.explicitSchedule;
    } else {
        Rng rng(config.scheduleSeed);
        schedule_ = makeSchedule(config.regimen, config.totalInsts, rng);
    }
}

template <typename Step>
SampledResult
ClusterScheduleDriver::walk(Step &&step)
{
    SampledResult res;
    WallTimer timer;

    func::FuncSim fs(program);
    Machine machine(config.machine);
    policy.clearWork();
    policy.attach(machine);

    const std::uint64_t iline_mask =
        ~std::uint64_t{machine.hier.il1().params().lineBytes - 1};

    SkipPhase skip(fs, policy, config.deadline, iline_mask, res.phases);
    ReconstructPhase reconstruct(policy, res.phases);

    std::uint64_t pos = 0;
    for (std::size_t index = 0; index < schedule_.size(); ++index) {
        const Cluster &cluster = schedule_[index];
        if (config.deadline && config.deadline->expired())
            throw TimeoutError("sampled run exceeded its deadline at "
                               "cluster boundary");
        // ---- cold/warm phases: functionally skip to the cluster.
        skip.run(cluster.start - pos);
        res.skippedInsts += cluster.start - pos;

        // ---- cluster boundary: the policy's eager warm-up.
        reconstruct.run();

        // ---- hot phase: measure in place, or capture for replay.
        step(index, cluster, fs, machine, iline_mask, res);
        pos = cluster.start + cluster.size;
    }

    res.warmWork = policy.work();
    res.seconds = timer.seconds();
    return res;
}

SampledResult
ClusterScheduleDriver::runInline()
{
    SampledResult res =
        walk([this](std::size_t, const Cluster &cluster,
                    func::FuncSim &fs, Machine &machine, std::uint64_t,
                    SampledResult &acc) {
            // Measure in place on the shared machine; no snapshot.
            std::unique_ptr<MeasureContext> ctx =
                policy.makeMeasureContext();
            if (ctx)
                ctx->attach(machine);
            FuncSource src(fs);
            MeasurePhase measure(machine, config.machine.core, acc.phases);
            const uarch::RunResult rr = measure.run(src, cluster.size);
            if (ctx)
                policy.addReconstructionWork(ctx->detach(machine));
            policy.afterCluster();

            acc.clusterIpc.push_back(rr.ipc());
            acc.hotInsts += rr.insts;
            acc.hotCycles += rr.cycles;
            acc.branchMispredicts += rr.branchMispredicts;
        });
    res.estimate = summarizeClusters(res.clusterIpc);
    return res;
}

SampledResult
ClusterScheduleDriver::runDeferred(ReplaySink &sink)
{
    return walk([this, &sink](std::size_t index, const Cluster &cluster,
                              func::FuncSim &fs, Machine &machine,
                              std::uint64_t iline_mask,
                              SampledResult &acc) {
        // Capture for a later replay; the sink measures the cluster.
        CapturePhase capture(fs, policy, machine, iline_mask, acc.phases);
        sink.onCluster(capture.run(index, cluster));
    });
}

namespace
{

/**
 * The proxy micro-models: small enough that a functional pass over a
 * few million instructions costs microseconds per cluster, rich enough
 * that their miss/mispredict counts order clusters by timing behaviour.
 */
struct ProxyModels
{
    static constexpr std::uint64_t numSets = 512;
    static constexpr std::uint64_t lineShift = 6;
    static constexpr std::uint64_t bimodalEntries = 4096;

    std::vector<std::uint64_t> tags =
        std::vector<std::uint64_t>(numSets, ~std::uint64_t{0});
    std::vector<std::uint8_t> counters =
        std::vector<std::uint8_t>(bimodalEntries, 1);

    /** Probe-and-fill; true on miss. */
    bool
    access(std::uint64_t addr)
    {
        const std::uint64_t line = addr >> lineShift;
        const std::uint64_t set = line & (numSets - 1);
        if (tags[set] == line)
            return false;
        tags[set] = line;
        return true;
    }

    /** Predict-and-train a conditional branch; true on mispredict. */
    bool
    predict(std::uint64_t pc, bool taken)
    {
        const std::uint64_t idx = (pc >> 2) & (bimodalEntries - 1);
        std::uint8_t &ctr = counters[idx];
        const bool predicted_taken = ctr >= 2;
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
        return predicted_taken != taken;
    }
};

} // namespace

std::vector<double>
profileClusterProxies(const func::Program &program,
                      const std::vector<Cluster> &candidates,
                      const Deadline *deadline)
{
    if (candidates.empty())
        return {};
    validateSchedule(candidates,
                     candidates.back().start + candidates.back().size);

    func::FuncSim fs(program);
    ProxyModels models;
    std::vector<double> scores(candidates.size(), 0.0);

    const std::uint64_t end =
        candidates.back().start + candidates.back().size;
    std::size_t next = 0;       // first candidate not yet finished
    std::uint64_t in_misses = 0, in_mispred = 0;
    func::DynInst d;
    std::uint64_t last_iblock = ~std::uint64_t{0};
    for (std::uint64_t i = 0; i < end; ++i) {
        if (deadline && (i & deadlineCheckMask) == 0 &&
            deadline->expired())
            throw TimeoutError("proxy-rank pass exceeded its deadline");
        const bool ok = fs.step(&d);
        rsr_assert(ok, "workload halted inside the proxy-rank pass");

        const Cluster &c = candidates[next];
        const bool inside = i >= c.start;
        std::uint64_t misses = 0, mispred = 0;

        // The models run continuously — skipped regions warm them just
        // like SkipPhase warms the real hierarchy — but counts are only
        // charged to the enclosing candidate cluster.
        const std::uint64_t blk = d.pc >> ProxyModels::lineShift
                                       << ProxyModels::lineShift;
        if (blk != last_iblock)
            misses += models.access(d.pc);
        last_iblock = blk;
        if (d.inst.isMem())
            misses += models.access(d.effAddr);
        if (d.inst.branchKind() == isa::BranchKind::Conditional)
            mispred += models.predict(d.pc, d.taken);

        if (inside) {
            in_misses += misses;
            in_mispred += mispred;
            if (i + 1 == c.start + c.size) {
                const double insts = static_cast<double>(c.size);
                scores[next] =
                    insts / (insts + 18.0 * static_cast<double>(in_misses) +
                             10.0 * static_cast<double>(in_mispred));
                in_misses = 0;
                in_mispred = 0;
                ++next;
                if (next == candidates.size())
                    break;
            }
        }
    }
    rsr_assert(next == candidates.size(),
               "proxy-rank pass ended before the last candidate");
    return scores;
}

Machine &
ReplayArena::acquire(const MachineConfig &machine_config)
{
    if (!machine)
        machine = std::make_unique<Machine>(machine_config);
    return *machine;
}

uarch::RunResult
replayCluster(ClusterReplayTask &task,
              const MachineConfig &machine_config, ReplayArena &arena,
              std::uint64_t *recon_updates, double *seconds)
{
    rsr_assert(!task.warm != task.machineState.empty(),
               "replay task must carry exactly one of a live machine and "
               "a snapshot");
    WallTimer timer;
    Machine *warm = task.warm.get();
    if (warm) {
        if (warm->config.hier != machine_config.hier ||
            warm->config.bp != machine_config.bp)
            rsr_throw_corrupt("replay task ", task.index,
                              " was captured under memory-hierarchy or "
                              "branch-unit parameters that differ from "
                              "the replay configuration");
    } else {
        warm = &arena.acquire(machine_config);
        restoreFromBytes(*warm, task.machineState);
    }
    Machine &m = *warm;
    if (task.context)
        task.context->attach(m);
    m.hier.l1Bus().reset();
    m.hier.l2Bus().reset();
    uarch::OoOCore core(machine_config.core, m.hier, m.bp);
    TraceSource src(task.trace);
    const uarch::RunResult rr = core.run(src, task.trace.size());
    rsr_assert(rr.insts == task.trace.size(),
               "stored trace ended inside a cluster");
    std::uint64_t updates = 0;
    if (task.context)
        updates = task.context->detach(m);
    if (recon_updates)
        *recon_updates = updates;
    if (seconds)
        *seconds = timer.seconds();
    return rr;
}

} // namespace rsr::core
