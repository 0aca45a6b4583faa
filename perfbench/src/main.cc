/**
 * @file
 * rsr_perfbench: the repository benchmark program. perfbench/run.py builds
 * it and runs one workload per process; see perfbench/README.md.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "harness/thread_pool.hh"
#include "util/args.hh"
#include "util/error.hh"
#include "util/fileio.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace perfbench;

/** Host seconds of repeated set-ups after an untraced run's window. */
constexpr double kSetupSeconds = 1.0;
/** Fewest set-up samples setup_s is reported from. */
constexpr std::size_t kMinSetups = 20;

constexpr const char *kUsage =
    "usage: rsr_perfbench --workload W --seed N --seconds S --trace 0|1\n"
    "                     --goldens DIR --out DIR\n"
    "       rsr_perfbench --mode goldens --workload W --seeds A-B\n"
    "                     --goldens DIR --out DIR --write FILE\n"
    "       rsr_perfbench --mode reference --goldens DIR [--write FILE]\n"
    "\n"
    "Workloads: sparse_skip dense_run design_sweep.\n"
    "Run mode measures one workload for --seconds and prints, as its last\n"
    "line, one JSON object with the e2e metrics (--trace 0) or the\n"
    "per-layer metrics of a traced run (--trace 1). Every op's simulated\n"
    "outputs are checked against DIR/<workload>.txt for shipped seeds.\n"
    "Goldens mode runs each op once per seed in [A, B] and writes the\n"
    "golden lines to FILE. Reference mode recomputes the committed\n"
    "full-run truth (DIR/truth.txt) and exits 1 on any difference.\n"
    "Files are written only under --out DIR and to --write FILE.\n";

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sparse_skip")
        return makeSparseSkip();
    if (name == "dense_run")
        return makeDenseRun();
    if (name == "design_sweep")
        return makeDesignSweep();
    rsr_throw_user("unknown workload '", name,
                   "' (sparse_skip, dense_run, design_sweep)");
}

/** A dependent multiply-xorshift chain; returns an unused value so the
 *  loop cannot be folded away. */
std::uint64_t
spin(std::uint64_t iters, std::uint64_t x)
{
    for (std::uint64_t i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
    }
    return x;
}

/**
 * Host control, recorded in every run and never used to normalise a
 * metric: the single-thread spin rate, and the 2-thread over 1-thread
 * aggregate spin-rate ratio (2.0 when two cores are really free).
 */
std::pair<double, double>
hostControl(std::uint64_t seed)
{
    constexpr std::uint64_t kIters = 20'000'000;
    std::uint64_t sink = 0;
    std::int64_t t0 = nowNs();
    sink ^= spin(kIters, seed);
    const double one = secondsSince(t0);
    std::uint64_t r[2] = {0, 0};
    t0 = nowNs();
    {
        std::thread a([&r, seed] { r[0] = spin(kIters, seed + 1); });
        std::thread b([&r, seed] { r[1] = spin(kIters, seed + 2); });
        a.join();
        b.join();
    }
    const double two = secondsSince(t0);
    sink ^= r[0] ^ r[1];
    std::printf("host: spin %.1f Mop/s, parallelism %.3f (sink %llx)\n",
                static_cast<double>(kIters) / one * 1e-6, 2.0 * one / two,
                static_cast<unsigned long long>(sink & 0xf));
    return {static_cast<double>(kIters) / one * 1e-6, 2.0 * one / two};
}

/** Per-task overhead of harness::ThreadPool with @p workers, in us. */
double
poolTaskMicros(unsigned workers)
{
    constexpr int kTasks = 20000;
    rsr::harness::ThreadPool pool(workers);
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < kTasks; ++i)
        pool.submit([] {});
    pool.wait();
    return secondsSince(t0) * 1e6 / kTasks;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printResult(const OpBook &book, const Metrics &metrics,
            const std::vector<std::pair<std::string, std::string>> &names)
{
    std::ostringstream out;
    out << "{\"correct\": " << (book.failed() == 0 ? "true" : "false")
        << ", \"attempted\": " << book.attempted()
        << ", \"failed\": " << book.failed() << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : names) {
        const auto it = metrics.find(name);
        const double v = it == metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            rsr_throw_internal("metric ", name, " is not finite");
        out << (first ? "" : ", ") << "\"" << name
            << "\": {\"value\": " << jsonNumber(v) << ", \"unit\": \""
            << unit << "\"}";
        first = false;
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
}

int
runMode(const rsr::ArgParser &args)
{
    Context ctx;
    ctx.seed = args.getU64("seed", 1);
    ctx.seconds = args.getDouble("seconds", 10.0);
    ctx.goldenDir = args.get("goldens");
    ctx.outDir = args.get("out");
    const std::string trace = args.get("trace", "0");
    if (trace != "0" && trace != "1")
        rsr_throw_user("--trace takes 0 or 1, got '", trace, "'");
    if (ctx.goldenDir.empty() || ctx.outDir.empty())
        rsr_throw_user("--goldens and --out are required");
    if (!(ctx.seconds > 0.0))
        rsr_throw_user("--seconds must be positive");
    const std::string name = args.get("workload");
    auto workload = makeWorkload(name);
    const std::string golden_path = ctx.goldenDir + "/" + name + ".txt";
    if (!rsr::fileExists(golden_path))
        rsr_throw_user("missing goldens ", golden_path);
    rsr::makeDirs(ctx.outDir);

    const auto [spin_mops, parallelism] = hostControl(ctx.seed);

    // setup_s: the set-up before the first timed op. One takes a few
    // milliseconds, and repeated right at process start its time jumped
    // between two levels from run to run (fresh heap, page faults). The
    // untraced run therefore repeats it for kSetupSeconds more after the
    // window, where it neither perturbs the ops nor raises their peak
    // RSS, and reports the upper quartile of all samples, as the op
    // times do. The repeats rebuild the workload's own, identical inputs.
    std::vector<double> setups;
    const auto time_setup = [&](OpBook &book) {
        const std::int64_t t0 = nowNs();
        book = OpBook(golden_path, ctx.seed);
        workload->setup(ctx);
        setups.push_back(secondsSince(t0));
    };
    time_setup(ctx.book);

    SpanRecorder spans;
    if (trace == "1")
        ctx.spans = &spans;
    workload->run(ctx);

    if (!ctx.spans) {
        // The window's peak RSS, before the repeated set-ups.
        ctx.metrics["peak_rss_mb"] = peakRssMb();
        OpBook repeat_book;
        const std::int64_t start = nowNs();
        while (secondsSince(start) < kSetupSeconds ||
               setups.size() < kMinSetups)
            time_setup(repeat_book);
        ctx.metrics["setup_s"] = opTime(setups);
        std::printf("setup: %zu samples  median %.6f s  upper quartile "
                    "%.6f s\n",
                    setups.size(), median(setups), opTime(setups));
        for (const auto &[metric, unit] : e2eMetrics())
            if (!(ctx.metrics[metric] > 0.0))
                rsr_throw_internal("e2e metric ", metric,
                                   " was not measured");
        printResult(ctx.book, ctx.metrics, e2eMetrics());
        return 0;
    }

    std::vector<double> builds;
    for (std::size_t i = 0; i < kMinSetups; ++i) {
        const std::int64_t t0 = nowNs();
        for (const std::string &g : workload->generators())
            (void)rsr::workload::buildSynthetic(
                rsr::workload::standardWorkloadParams(g));
        builds.push_back(secondsSince(t0) * 1e3);
    }
    ctx.metrics["workload.build_ms"] = median(builds);
    ctx.metrics["pool.task_us_1w"] = poolTaskMicros(1);
    ctx.metrics["pool.task_us_2w"] = poolTaskMicros(2);
    ctx.metrics["host.spin_mops"] = spin_mops;
    ctx.metrics["host.parallelism"] = parallelism;
    spans.write(ctx.outDir + "/spans.jsonl");
    printResult(ctx.book, ctx.metrics, layerMetrics());
    return 0;
}

int
goldensMode(const rsr::ArgParser &args)
{
    const std::string name = args.get("workload");
    const std::string range = args.get("seeds");
    const std::string write = args.get("write");
    const auto dash = range.find('-');
    if (dash == std::string::npos || write.empty() || !args.has("out"))
        rsr_throw_user("goldens mode needs --seeds A-B, --out DIR and "
                       "--write FILE");
    const std::uint64_t lo = std::stoull(range.substr(0, dash));
    const std::uint64_t hi = std::stoull(range.substr(dash + 1));
    std::ostringstream lines;
    std::uint64_t failed = 0;
    for (std::uint64_t seed = lo; seed <= hi; ++seed) {
        auto workload = makeWorkload(name);
        Context ctx;
        ctx.seed = seed;
        ctx.oneRound = true;
        ctx.goldenDir = args.get("goldens");
        ctx.outDir = args.get("out");
        rsr::makeDirs(ctx.outDir);
        workload->setup(ctx);
        workload->run(ctx);
        failed += ctx.book.failed();
        for (const auto &[key, record] : ctx.book.records())
            lines << seed << " " << key << " " << record << "\n";
    }
    rsr::atomicWriteFile(write, lines.str());
    std::printf("wrote %s\n", write.c_str());
    return failed == 0 ? 0 : 1;
}

int
referenceMode(const rsr::ArgParser &args)
{
    const std::string dir = args.get("goldens");
    std::ostringstream lines;
    int mismatches = 0;
    for (const auto &[gen, insts] : truthPopulations()) {
        const auto program = rsr::workload::buildSynthetic(
            rsr::workload::standardWorkloadParams(gen));
        const rsr::core::FullRunResult full =
            rsr::core::runFull(program, insts, benchMachine());
        char line[160];
        std::snprintf(line, sizeof(line), "%s %llu %a %llu", gen.c_str(),
                      static_cast<unsigned long long>(insts), full.ipc(),
                      static_cast<unsigned long long>(full.timing.cycles));
        lines << line << "\n";
        double committed = 0.0;
        try {
            committed = truthIpc(dir, gen, insts);
        } catch (const rsr::UserError &) {
        }
        const bool same = committed == full.ipc();
        mismatches += !same;
        std::printf("%s  %.1f s  %s\n", line, full.seconds,
                    same ? "matches the committed truth"
                         : "DIFFERS from the committed truth");
    }
    if (args.has("write"))
        rsr::atomicWriteFile(args.get("write"), lines.str());
    return mismatches == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        rsr::ArgParser args(argc, argv);
        if (args.has("help") || args.command() == "help") {
            std::printf("%s", kUsage);
            return 0;
        }
        if (!args.command().empty())
            rsr_throw_user("unexpected argument '", args.command(), "'");
        args.requireKnown({"workload", "seed", "seconds", "trace",
                           "goldens", "out", "mode", "seeds", "write",
                           "help"});
        const std::string mode = args.get("mode", "run");
        if (mode == "run")
            return runMode(args);
        if (mode == "goldens")
            return goldensMode(args);
        if (mode == "reference")
            return referenceMode(args);
        rsr_throw_user("unknown --mode '", mode, "'");
    } catch (const rsr::SimError &e) {
        std::fprintf(stderr, "fatal [%s]: %s\n", rsr::errorKindName(e.kind()),
                     e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
