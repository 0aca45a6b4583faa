/**
 * @file
 * Warm-up policies for sampled simulation — the full matrix of methods
 * from the paper's Table 2:
 *
 *   None          — caches and branch predictor left stale between clusters
 *   FP (p%)       — full functional warming over the last p% of each skip
 *                   region
 *   S$ / SBP / S$BP — SMARTS full functional warming of the caches, the
 *                   branch predictor, or both, over the entire skip region
 *   R$ (p%) / RBP / R$BP (p%) — Reverse State Reconstruction: log during
 *                   the skip, reconstruct the caches from the most recent
 *                   p% of the reference log immediately before the
 *                   cluster, and rebuild branch-predictor entries
 *                   on demand during the cluster
 *
 * A policy observes every skipped instruction (the cold/warm phases) and
 * is notified at skip and cluster boundaries; the controller in
 * sampled_sim.hh drives it. The final policies also hand the skip phase
 * a functional-kernel observer (FunctionalWarmer, SkipLogger) that sees
 * each fetch, data reference and branch from the executing opcode's own
 * case; their per-record onSkipInst() runs the same observer hooks.
 */

#ifndef RSR_CORE_WARMUP_HH
#define RSR_CORE_WARMUP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/branch_reconstructor.hh"
#include "core/cache_reconstructor.hh"
#include "core/machine.hh"
#include "core/skip_log.hh"
#include "func/funcsim.hh"
#include "util/snapshot.hh"

namespace rsr::core
{

/** Warm-side work accounting, reported with every sampled run. */
struct WarmupWork
{
    /** Cache/BP state updates applied functionally (SMARTS/FP path). */
    std::uint64_t functionalUpdates = 0;
    /** Updates applied by reverse reconstruction (RSR path). */
    std::uint64_t reconstructionUpdates = 0;
    /** Records appended to the skip-region log. */
    std::uint64_t loggedRecords = 0;
    /** Peak bytes buffered in the log (storage-for-speed tradeoff). */
    std::uint64_t peakLogBytes = 0;

    std::uint64_t
    totalUpdates() const
    {
        return functionalUpdates + reconstructionUpdates;
    }
};

/**
 * Per-cluster measurement-time state a policy wants active *during* the
 * hot phase — RSR's on-demand branch reconstruction is the canonical
 * example. A context is created by the policy at the cluster boundary
 * (after beforeCluster()), owns everything it needs (it may outlive the
 * policy's per-skip log), and is attached to whichever machine actually
 * executes the cluster: the shared machine in inline mode, or a private
 * replay machine on a worker thread in deferred/parallel mode.
 */
class MeasureContext
{
  public:
    virtual ~MeasureContext() = default;

    /** Arm the context on the machine about to measure the cluster. */
    virtual void attach(Machine &machine) = 0;

    /**
     * Disarm after the cluster completes.
     * @return reconstruction work units applied on demand.
     */
    virtual std::uint64_t detach(Machine &machine) = 0;

    /**
     * Serialize this context as one framed snapshot so a live-point
     * store can replay the cluster later with identical on-demand
     * warming. The default refuses (UserError): a context that cannot
     * round-trip must not be silently dropped from a store.
     */
    virtual void snapshot(Serializer &out) const;
};

/**
 * Rebuild a MeasureContext from a frame written by
 * MeasureContext::snapshot(). Throws CorruptInputError on a damaged or
 * unrecognized frame.
 */
std::unique_ptr<MeasureContext> restoreMeasureContext(Deserializer &in);

/** Interface every warm-up method implements. */
class WarmupPolicy
{
  public:
    virtual ~WarmupPolicy() = default;

    /** Short identifier as used in the paper (e.g. "R$BP (20%)"). */
    virtual std::string name() const = 0;

    /** Bind to the machine whose state the policy warms. */
    virtual void attach(Machine &machine) { this->machine = &machine; }

    /** A new skip region of @p skip_len instructions begins. */
    virtual void beginSkip(std::uint64_t skip_len) { (void)skip_len; }

    /**
     * Index of the first skipped instruction this policy needs to
     * observe (called once per region, after beginSkip()). The driver
     * fast-forwards the functional simulator over the prefix without
     * capturing instruction records and never calls onSkipInst() for it;
     * a policy that overrides this must account for the unobserved
     * prefix itself. The default observes the whole region.
     */
    virtual std::uint64_t
    observeFrom(std::uint64_t skip_len)
    {
        (void)skip_len;
        return 0;
    }

    /**
     * One skipped (functionally executed) instruction.
     * @param d the committed record
     * @param new_fetch_block first instruction in a new I-cache line
     */
    virtual void onSkipInst(const func::DynInst &d, bool new_fetch_block)
    {
        (void)d;
        (void)new_fetch_block;
    }

    /** The skip region ended; the next cluster is about to execute. */
    virtual void beforeCluster() {}

    /**
     * Hand over measurement-time state for the coming cluster (called
     * once per cluster, after beforeCluster()). The default — and the
     * right answer for eager policies — is no context.
     */
    virtual std::unique_ptr<MeasureContext> makeMeasureContext()
    {
        return nullptr;
    }

    /** The cluster finished executing. */
    virtual void afterCluster() {}

    /** Accumulated warm-side work. */
    const WarmupWork &work() const { return work_; }
    void clearWork() { work_ = WarmupWork{}; }

    /** Fold in reconstruction work done by a detached MeasureContext. */
    void
    addReconstructionWork(std::uint64_t updates)
    {
        work_.reconstructionUpdates += updates;
    }

  protected:
    Machine *machine = nullptr;
    WarmupWork work_;
};

/**
 * Functional-kernel observer for functional warming (SMARTS, FP, and
 * the commit-order training of deferred capture): each reported fetch,
 * data reference and branch outcome updates the machine's caches and/or
 * branch predictor on the spot, in the S$BP order. Given a WarmupWork,
 * it adds the updates it applied when it goes out of scope.
 * @p iline_mask and @p last_line are the kernel's I-line state (see
 * func::FetchObserver); func::observeRecord() does not read them.
 */
class FunctionalWarmer : public func::FetchObserver
{
  public:
    FunctionalWarmer(Machine &machine, bool warm_cache, bool warm_bp,
                     WarmupWork *work, std::uint64_t iline_mask = 0,
                     std::uint64_t last_line = ~std::uint64_t{0})
        : FetchObserver(iline_mask, last_line), hier(machine.hier),
          bp(machine.bp), warmCache(warm_cache), warmBp(warm_bp),
          work(work), startUpdates(machine.hier.warmUpdates())
    {}

    FunctionalWarmer(const FunctionalWarmer &) = delete;
    FunctionalWarmer &operator=(const FunctionalWarmer &) = delete;

    ~FunctionalWarmer()
    {
        if (work)
            work->functionalUpdates +=
                hier.warmUpdates() - startUpdates + branchUpdates;
    }

    void
    fetch(std::uint64_t pc)
    {
        if (warmCache)
            hier.warmAccess(pc, false, true);
    }

    void
    mem(std::uint64_t, std::uint64_t addr, bool is_store)
    {
        if (warmCache)
            hier.warmAccess(addr, is_store, false);
    }

    void
    branch(std::uint64_t pc, std::uint64_t next_pc, isa::BranchKind kind)
    {
        if (warmBp) {
            bp.warmApply(pc, kind, next_pc != pc + 4, next_pc);
            ++branchUpdates;
        }
    }

  private:
    cache::MemoryHierarchy &hier;
    branch::GsharePredictor &bp;
    bool warmCache;
    bool warmBp;
    WarmupWork *work;
    std::uint64_t startUpdates;
    std::uint64_t branchUpdates = 0;
};

/**
 * Functional-kernel observer for Reverse State Reconstruction: appends
 * each reported fetch and data reference to the memory log and each
 * branch to the branch log, and adds the records it appended to
 * WarmupWork::loggedRecords when it goes out of scope. The I-line
 * arguments are as for FunctionalWarmer.
 */
class SkipLogger : public func::FetchObserver
{
  public:
    SkipLogger(SkipLog &log, WarmupWork &work, bool log_cache, bool log_bp,
               std::uint64_t iline_mask = 0,
               std::uint64_t last_line = ~std::uint64_t{0})
        : FetchObserver(iline_mask, last_line), log(log), work(work),
          logCache(log_cache), logBp(log_bp), memStart(log.mem.size()),
          branchStart(log.branches.size())
    {}

    SkipLogger(const SkipLogger &) = delete;
    SkipLogger &operator=(const SkipLogger &) = delete;

    ~SkipLogger()
    {
        work.loggedRecords += (log.mem.size() - memStart) +
                              (log.branches.size() - branchStart);
    }

    void
    fetch(std::uint64_t pc)
    {
        if (logCache)
            log.mem.append(pc, pc, true, false);
    }

    void
    mem(std::uint64_t pc, std::uint64_t addr, bool is_store)
    {
        if (logCache)
            log.mem.append(pc, addr, false, is_store);
    }

    void
    branch(std::uint64_t pc, std::uint64_t next_pc, isa::BranchKind kind)
    {
        if (logBp)
            log.branches.push_back({pc, next_pc, kind, next_pc != pc + 4});
    }

  private:
    SkipLog &log;
    WarmupWork &work;
    bool logCache;
    bool logBp;
    std::size_t memStart;
    std::size_t branchStart;
};

/** "None": state is left entirely stale between clusters. */
class NoWarmup final : public WarmupPolicy
{
  public:
    std::string name() const override { return "None"; }

    /** Nothing to observe: the whole region fast-forwards. */
    std::uint64_t
    observeFrom(std::uint64_t skip_len) override
    {
        return skip_len;
    }
};

/**
 * SMARTS full functional warming (optionally restricted to the trailing
 * fraction of each skip region, which yields the paper's fixed-period
 * policy).
 */
class FunctionalWarmup final : public WarmupPolicy
{
  public:
    /**
     * @param warm_cache warm the cache hierarchy
     * @param warm_bp    warm the branch predictor
     * @param fraction   apply updates over the last `fraction` of each
     *                   skip region (1.0 = SMARTS, <1.0 = fixed period)
     * @param label      presentation name
     */
    FunctionalWarmup(bool warm_cache, bool warm_bp, double fraction,
                     std::string label);

    std::string name() const override { return label; }
    void beginSkip(std::uint64_t skip_len) override;
    void onSkipInst(const func::DynInst &d, bool new_fetch_block) override;

    /**
     * The kernel observer for the rest of the current region (after
     * observeFrom()): the region's instructions are then observed
     * through it instead of onSkipInst().
     */
    FunctionalWarmer observer(std::uint64_t iline_mask,
                              std::uint64_t last_line);

    /**
     * The cold prefix before warmStart is invisible to this policy;
     * account for it up front so onSkipInst sees every observed
     * instruction as warm.
     */
    std::uint64_t
    observeFrom(std::uint64_t skip_len) override
    {
        (void)skip_len;
        skipPos = warmStart;
        return warmStart;
    }

    /** SMARTS warming both components (the paper's S$BP). */
    static std::unique_ptr<FunctionalWarmup> smarts();
    /** SMARTS cache-only (S$). */
    static std::unique_ptr<FunctionalWarmup> smartsCacheOnly();
    /** SMARTS branch-predictor-only (SBP). */
    static std::unique_ptr<FunctionalWarmup> smartsBpOnly();
    /** Fixed-period warming of both components (FP (p%)). */
    static std::unique_ptr<FunctionalWarmup> fixedPeriod(double fraction);

  private:
    bool warmCache;
    bool warmBp;
    double fraction;
    std::string label;
    std::uint64_t skipLen = 0;
    std::uint64_t skipPos = 0;
    std::uint64_t warmStart = 0;
};

/** Reverse State Reconstruction (the paper's contribution). */
class ReverseReconstructionWarmup final : public WarmupPolicy
{
  public:
    /**
     * @param warm_cache reconstruct the cache hierarchy (R$)
     * @param warm_bp    reconstruct the branch predictor (RBP)
     * @param fraction   reconstruct from the most recent `fraction` of
     *                   the logged references (cache side only; the
     *                   branch side is on-demand over the full log)
     * @param pht_mode   ambiguous-counter resolution rule (the paper's
     *                   tie-break, or the apply-to-stale extension)
     */
    ReverseReconstructionWarmup(
        bool warm_cache, bool warm_bp, double fraction,
        PhtResolveMode pht_mode = PhtResolveMode::PaperTieBreak);
    ~ReverseReconstructionWarmup() override;

    std::string name() const override;
    void beginSkip(std::uint64_t skip_len) override;
    void onSkipInst(const func::DynInst &d, bool new_fetch_block) override;
    void beforeCluster() override;

    /** The kernel observer that logs the current region. */
    SkipLogger observer(std::uint64_t iline_mask, std::uint64_t last_line);

    std::unique_ptr<MeasureContext> makeMeasureContext() override;
    void afterCluster() override;

    const SkipLog &log() const { return skipLog; }

    /** R$ (p%). */
    static std::unique_ptr<ReverseReconstructionWarmup>
    cacheOnly(double fraction);
    /** RBP. */
    static std::unique_ptr<ReverseReconstructionWarmup> bpOnly();
    /** R$BP (p%). */
    static std::unique_ptr<ReverseReconstructionWarmup>
    full(double fraction);

  private:
    bool warmCache;
    bool warmBp;
    double fraction;
    PhtResolveMode phtMode;
    SkipLog skipLog;
};

/**
 * Build the paper's full Table-2 policy list: None, FP (20/40/80%), S$,
 * SBP, S$BP, R$ (20/40/80/100%), RBP, R$BP (20/40/80/100%).
 */
std::vector<std::unique_ptr<WarmupPolicy>> makeTable2Policies();

/**
 * Build a policy from a command-line-friendly name:
 * `none`, `smarts`, `scache`, `sbp`, `fp<percent>`, `rsr<percent>`,
 * `rcache<percent>`, `rbp` — RSR names accept a `+stale` suffix for the
 * apply-to-stale counter-resolution extension. Fatal on unknown names.
 */
std::unique_ptr<WarmupPolicy> makePolicyByName(const std::string &name);

// Per-record policy hooks, defined inline through the same observers the
// skip phase (phase_driver.cc) runs inside the functional kernel, so each
// policy's per-event behaviour is written once.

inline void
FunctionalWarmup::onSkipInst(const func::DynInst &d, bool new_fetch_block)
{
    if (skipPos++ < warmStart)
        return;
    FunctionalWarmer warm(*machine, warmCache, warmBp, &work_);
    func::observeRecord(warm, d, new_fetch_block);
}

inline FunctionalWarmer
FunctionalWarmup::observer(std::uint64_t iline_mask, std::uint64_t last_line)
{
    skipPos = skipLen;
    return FunctionalWarmer(*machine, warmCache, warmBp, &work_, iline_mask,
                            last_line);
}

inline void
ReverseReconstructionWarmup::onSkipInst(const func::DynInst &d,
                                        bool new_fetch_block)
{
    SkipLogger logger(skipLog, work_, warmCache, warmBp);
    func::observeRecord(logger, d, new_fetch_block);
}

inline SkipLogger
ReverseReconstructionWarmup::observer(std::uint64_t iline_mask,
                                      std::uint64_t last_line)
{
    return SkipLogger(skipLog, work_, warmCache, warmBp, iline_mask,
                      last_line);
}

} // namespace rsr::core

#endif // RSR_CORE_WARMUP_HH
