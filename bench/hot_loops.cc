/**
 * @file
 * Hot-loop throughput benchmark, and the source of the perf-smoke CI
 * baseline (BENCH_hot_loops.json).
 *
 * Measures the inner loops this simulator spends its life in —
 * functional execute (the unobserved kernel), the cache/warming fast
 * path, the RSR skip-log append (the kernel with the shipped R$
 * observer) + reverse reconstruction scan, and the out-of-order timing
 * core over recorded cluster traces — plus one end-to-end quick-mode
 * run of the full Table-2 policy matrix.
 *
 * Absolute rates are useless as a CI gate (runners differ wildly), so
 * every metric is also reported normalized against a fixed integer
 * calibration loop measured in the same process: `norm_*` is
 * (metric rate) / (calibration rate), a dimensionless ratio that mostly
 * cancels machine speed. The perf-smoke job compares the `norm_*` keys
 * against the committed baseline with tools/bench_compare.
 *
 * Flags: --quick (CI-sized inputs), --out FILE (default
 * BENCH_hot_loops.json in the current directory).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cache/hierarchy.hh"
#include "core/cache_reconstructor.hh"
#include "core/machine.hh"
#include "core/phase_driver.hh"
#include "core/skip_log.hh"
#include "core/warmup.hh"
#include "func/funcsim.hh"
#include "harness/json.hh"
#include "uarch/core.hh"
#include "util/args.hh"
#include "util/error.hh"
#include "util/fileio.hh"
#include "util/timer.hh"

namespace
{

using namespace rsr;

/**
 * Best-of-N: rerun a rate measurement and keep the fastest. Transient
 * scheduler interference only ever makes a run slower, so the max is a
 * far more stable estimator than any single run on a shared CPU.
 */
template <typename Fn>
double
bestOf(unsigned reps, Fn &&measure)
{
    double best = 0.0;
    for (unsigned i = 0; i < reps; ++i)
        best = std::max(best, measure());
    return best;
}

/**
 * Fixed integer spin loop (FNV-1a over a counter): the per-machine speed
 * yardstick all other rates are normalized by.
 */
double
calibrationMopsPerSec(std::uint64_t iters)
{
    WallTimer timer;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
        h ^= i;
        h *= 0x100000001b3ull;
    }
    const double secs = timer.seconds();
    // Keep the result observable so the loop cannot be elided.
    if (h == 0)
        std::printf("calibration hash collision\n");
    return static_cast<double>(iters) / secs / 1e6;
}

/**
 * Functional skip-loop throughput: the kernel with no observer, as the
 * skip phase fast-forwards an unobserved prefix.
 */
double
funcStepMinstsPerSec(const func::Program &program, std::uint64_t insts)
{
    func::FuncSim fs(program);
    WallTimer timer;
    std::uint64_t done = 0;
    while (done < insts) {
        const std::uint64_t want = insts - done;
        const std::uint64_t ran = fs.run(want);
        done += ran;
        if (ran < want)
            fs.reset();
    }
    return static_cast<double>(done) / timer.seconds() / 1e6;
}

/**
 * Cache-hierarchy warming fast path: the same warmAccess stream a
 * functional-warming policy generates, over a deterministic mix of
 * fetch / load / store addresses with realistic locality.
 */
double
warmAccessMopsPerSec(std::uint64_t accesses)
{
    cache::MemoryHierarchy hier(cache::HierarchyParams::paperDefault());
    std::uint64_t lcg = 0x2545f4914f6cdd1dull;
    WallTimer timer;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t r = lcg >> 33;
        // ~1/8 instruction-line touches, ~1/4 stores, rest loads, over a
        // 1 MB data footprint and a 64 KB code footprint.
        if ((r & 7) == 0)
            hier.warmAccess(0x400000 + (r & 0xffc0), false, true);
        else
            hier.warmAccess(0x10000000 + (r & 0xfffff8), (r & 6) == 2,
                            false);
    }
    return static_cast<double>(accesses) / timer.seconds() / 1e6;
}

/**
 * RSR path: skip-log append plus the reverse reconstruction scan, the
 * two sides of the paper's storage-for-speed trade. The append runs the
 * shipped R$ observer (core::SkipLogger) inside the functional kernel,
 * exactly as the skip phase does.
 */
double
rsrMrefsPerSec(const func::Program &program, std::uint64_t log_refs,
               unsigned scans)
{
    // Kernel calls of this many instructions append at most two memory
    // records each, so the reserved log never reallocates.
    constexpr std::uint64_t chunk = 4096;
    func::FuncSim fs(program);
    core::SkipLog log;
    log.mem.reserve(log_refs + 2 * chunk);
    core::WarmupWork work;
    cache::MemoryHierarchy hier(cache::HierarchyParams::paperDefault());
    const std::uint64_t iline_mask =
        ~std::uint64_t{hier.il1().params().lineBytes - 1};

    WallTimer timer;
    {
        core::SkipLogger logger(log, work, true, false, iline_mask);
        while (log.mem.size() < log_refs)
            if (fs.execute(chunk, logger) < chunk)
                fs.reset();
    }
    std::uint64_t refs = log.mem.size();
    for (unsigned s = 0; s < scans; ++s) {
        const auto res = core::reconstructCaches(hier, log.mem, 1.0);
        refs += res.refsScanned;
    }
    return static_cast<double>(refs) / timer.seconds() / 1e6;
}

/** One recorded cluster: the machine warmed up to its start, and its
 *  committed instruction trace. */
struct RecordedCluster
{
    core::Machine warm;
    std::vector<func::DynInst> trace;
};

/**
 * Record @p n_clusters clusters of @p cluster_size instructions, each
 * after a functionally warmed (S$BP-style) skip of @p skip instructions.
 */
std::vector<RecordedCluster>
recordClusters(const func::Program &program,
               const core::MachineConfig &mc, std::size_t n_clusters,
               std::uint64_t cluster_size, std::uint64_t skip)
{
    func::FuncSim fs(program);
    core::Machine machine(mc);
    const std::uint64_t iline_mask =
        ~std::uint64_t{machine.hier.il1().params().lineBytes - 1};
    std::vector<RecordedCluster> clusters;
    clusters.reserve(n_clusters);
    while (clusters.size() < n_clusters) {
        {
            core::FunctionalWarmer warmer(machine, true, true, nullptr,
                                          iline_mask);
            if (fs.execute(skip, warmer) < skip) {
                fs.reset();
                continue;
            }
        }
        RecordedCluster c{machine, {}};
        c.trace.resize(cluster_size);
        bool whole = true;
        for (auto &d : c.trace)
            whole = whole && fs.step(&d);
        if (!whole) {
            fs.reset();
            continue;
        }
        clusters.push_back(std::move(c));
    }
    return clusters;
}

/**
 * Timing-core throughput: OoOCore over every recorded cluster, each on
 * its own copy of the warmed machine, as deferred and live-point
 * replays run it. The copies are made before the clock starts, so the
 * rate is the timing model's alone.
 */
double
uarchMinstsPerSec(const std::vector<RecordedCluster> &clusters,
                  const uarch::CoreParams &params)
{
    std::vector<core::Machine> machines;
    machines.reserve(clusters.size());
    for (const auto &c : clusters)
        machines.push_back(c.warm);
    std::uint64_t insts = 0;
    WallTimer timer;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        uarch::OoOCore core(params, machines[i].hier, machines[i].bp);
        core::TraceSource src(clusters[i].trace);
        insts += core.run(src, clusters[i].trace.size()).insts;
    }
    return static_cast<double>(insts) / timer.seconds() / 1e6;
}

/**
 * End-to-end quick-mode Table-2 matrix: every policy, one workload,
 * sampled exactly as `rsr_sim sample` runs it. Returns instructions
 * simulated (skip + measure) per second of wall time.
 */
double
table2MinstsPerSec(const bench::WorkloadSetup &setup)
{
    std::uint64_t total_insts = 0;
    WallTimer timer;
    for (const auto &policy : core::makeTable2Policies()) {
        const auto r =
            core::runSampled(setup.program, *policy, setup.cfg);
        total_insts += r.skippedInsts + r.hotInsts;
        rsr_assert(!r.clusterIpc.empty(), "sampled run produced no "
                   "clusters");
    }
    return static_cast<double>(total_insts) / timer.seconds() / 1e6;
}

const char usage[] =
    "usage: hot_loops [--quick] [--out FILE]\n"
    "  --quick     CI-sized inputs\n"
    "  --out FILE  record path (default BENCH_hot_loops.json)\n"
    "  --help      print this text and exit\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace rsr;
    const ArgParser args =
        bench::parseFlags(argc, argv, usage, {"quick", "out"});
    const bool quick = args.has("quick");
    const std::string out_path = args.get("out", "BENCH_hot_loops.json");

    bench::banner("Hot-loop throughput: func step, cache warm, RSR scan, "
                  "timing core",
                  quick ? "quick mode (CI perf-smoke sizing)"
                        : "full mode");

    // Sizes: quick mode finishes in a few seconds on a CI runner while
    // staying long enough that rates are stable to a few percent.
    const std::uint64_t calib_iters = quick ? 200'000'000 : 800'000'000;
    const std::uint64_t func_insts = quick ? 8'000'000 : 32'000'000;
    const std::uint64_t warm_accesses = quick ? 8'000'000 : 32'000'000;
    const std::uint64_t rsr_refs = quick ? 2'000'000 : 8'000'000;
    const unsigned rsr_scans = 4;
    const std::size_t uarch_clusters = quick ? 50 : 200;

    auto setups = bench::prepareWorkloads(false, quick ? 1'000'000
                                                       : 4'000'000);
    std::size_t gcc_idx = 0;
    for (std::size_t i = 0; i < setups.size(); ++i)
        if (setups[i].params.name == "gcc")
            gcc_idx = i;
    bench::WorkloadSetup setup = std::move(setups[gcc_idx]);
    setup.cfg.regimen = quick ? core::SamplingRegimen{10, 2000}
                              : core::SamplingRegimen{40, 2000};

    const double calib = bestOf(3, [&] {
        return calibrationMopsPerSec(calib_iters);
    });
    std::printf("calibration      %8.1f Mops/s\n", calib);

    const double func_rate = bestOf(3, [&] {
        return funcStepMinstsPerSec(setup.program, func_insts);
    });
    std::printf("func step        %8.1f Minst/s\n", func_rate);

    const double warm_rate = bestOf(3, [&] {
        return warmAccessMopsPerSec(warm_accesses);
    });
    std::printf("cache warm       %8.1f Macc/s\n", warm_rate);

    const double rsr_rate = bestOf(3, [&] {
        return rsrMrefsPerSec(setup.program, rsr_refs, rsr_scans);
    });
    std::printf("rsr log+scan     %8.1f Mref/s\n", rsr_rate);

    const auto clusters = recordClusters(setup.program, setup.cfg.machine,
                                         uarch_clusters, 3000, 20'000);
    const double uarch_rate = bestOf(3, [&] {
        return uarchMinstsPerSec(clusters, setup.cfg.machine.core);
    });
    std::printf("timing core      %8.1f Minst/s\n", uarch_rate);

    const double e2e_rate = bestOf(2, [&] {
        return table2MinstsPerSec(setup);
    });
    std::printf("table2 end2end   %8.1f Minst/s (16 policies on %s)\n",
                e2e_rate, setup.params.name.c_str());

    auto j = bench::benchJson("hot_loops", 1);
    j.put("mode", quick ? "quick" : "full")
        .put("workload", setup.params.name)
        .put("calib_mops", calib)
        .put("func_minsts", func_rate)
        .put("warm_maccess", warm_rate)
        .put("rsr_mrefs", rsr_rate)
        .put("uarch_minsts", uarch_rate)
        .put("e2e_minsts", e2e_rate)
        .put("norm_func", func_rate / calib)
        .put("norm_warm", warm_rate / calib)
        .put("norm_rsr", rsr_rate / calib)
        .put("norm_uarch", uarch_rate / calib)
        .put("norm_e2e", e2e_rate / calib);
    atomicWriteFile(out_path, j.str() + "\n");
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
