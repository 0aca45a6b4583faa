/**
 * @file
 * Shared pieces of the repository benchmark: the workload interface, the
 * golden-checked op book, the span recorder of the traced run, the metric
 * tables, and small statistics helpers. perfbench/README.md says why each
 * workload exists and which layers it bypasses.
 */

#ifndef RSR_PERFBENCH_BENCH_HH
#define RSR_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sampled_sim.hh"
#include "serve/protocol.hh"

namespace perfbench
{

/** Monotonic nanoseconds since an arbitrary epoch. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since @p start_ns. */
inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** SplitMix64 of (seed, salt): independent seeds from one seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** The @p q quantile of @p v, interpolating between order statistics
 *  (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * The per-run statistic of an op's host time: the upper quartile of its
 * samples. On the small shared hosts this benchmark targets, short bursts
 * in which every op runs 25-35% faster cover part of most runs; over a
 * 4-minute trace of 36 s windows the upper quartile spread half as much
 * from window to window as the median (0.042 against 0.077). A slowdown
 * of the op itself moves every quantile alike.
 */
inline double
opTime(std::vector<double> v)
{
    return quantile(std::move(v), 0.75);
}

/** The canonical record of a sampled result's deterministic outputs. */
std::string resultRecord(const rsr::core::SampledResult &r);

/**
 * Ops attempted and failed, plus the output-correctness gate. Every op
 * reports a canonical record of its simulated outputs under a key;
 * check() fails the op when the record differs from the first record
 * seen under that key in this process (determinism), or from the
 * committed golden of this seed when goldens are shipped for it.
 */
class OpBook
{
  public:
    OpBook() = default;
    /** Load the lines of @p path for @p seed (missing file: none). */
    OpBook(const std::string &path, std::uint64_t seed);

    void attempt() { ++attempted_; }
    /** Count a failed op; @p why goes to stderr. */
    void fail(const std::string &why);

    /** Check @p record under @p key; false (and a failed op) on any
     *  mismatch. Does not count an attempt. */
    bool check(const std::string &key, const std::string &record);

    /** The first record seen under each key, in key order. */
    const std::map<std::string, std::string> &records() const
    {
        return seen_;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::map<std::string, std::string> golden_;
    std::map<std::string, std::string> seen_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * In-memory span recorder for the traced run. The benchmark opens a span
 * around each of its calls into one layer's public functions; spans of
 * one op share an op id, and a span's parent is the innermost span open
 * when it started. Spans are written out only when the run ends.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        std::uint32_t op = 0;
    };

    /** RAII span, closed when it leaves scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec;
        int index;
    };

    /** Start a new op; later spans carry its id. */
    std::uint32_t beginOp() { return ++op_; }

    /** Self time (duration minus direct children) per span name, summed
     *  over the spans of op @p op. */
    std::map<std::string, double> selfSeconds(std::uint32_t op) const;

    /** Write every span as one JSON line to @p path. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans;
    std::vector<int> open;
    std::uint32_t op_ = 0;
};

/** Metric values by name, for the one JSON line a run prints. */
using Metrics = std::map<std::string, double>;

/**
 * Self time per layer over the traced ops of a workload, published as
 * the *.share metrics. Span names map to layers by their prefix before
 * the first '.'; "op" self time is "other", and a "skip" span (the skip
 * phase steps the functional model and feeds the warm-up policy) is
 * split into func and warmup by the caller's functional-step estimate.
 */
class LayerShares
{
  public:
    void add(const std::map<std::string, double> &self,
             double skip_func_seconds = 0.0);
    void publish(Metrics &m) const;

  private:
    std::map<std::string, double> secs;
};

/** What one workload function receives. */
struct Context
{
    std::uint64_t seed = 1;
    /** Host-time length of the measured window, seconds. */
    double seconds = 10.0;
    /** Non-null in the traced run. */
    SpanRecorder *spans = nullptr;
    /** Goldens mode: run each op once, untimed. */
    bool oneRound = false;
    /** Directory of the committed goldens and truth. */
    std::string goldenDir;
    /** The only directory the benchmark writes to. */
    std::string outDir;
    OpBook book;
    Metrics metrics;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** The set-up before the first timed op (program generation, truth
     *  load); repeated to measure setup_s. */
    virtual void setup(Context &ctx) = 0;

    /** The measured window plus its correctness checks. */
    virtual void run(Context &ctx) = 0;

    /** The generators whose build time is workload.build_ms. */
    virtual std::vector<std::string> generators() const = 0;
};

std::unique_ptr<Workload> makeSparseSkip();
std::unique_ptr<Workload> makeDenseRun();
std::unique_ptr<Workload> makeDesignSweep();

/** One design point as the serve layer sees it: the request, and the
 *  library result that every reply to it must report. */
struct ServePoint
{
    rsr::serve::SimRequest request;
    rsr::core::SampledResult expected;
};

/**
 * The serve layer, measured once at the end of the traced design_sweep
 * run and outside its ops: serves @p points from an in-process
 * serve::Server over the socket protocol, checks every reply, times the
 * frame codec on the same frames, and publishes the serve.* metrics.
 */
void measureServe(Context &ctx, const std::vector<ServePoint> &points);

/** The machine every workload simulates. */
rsr::core::MachineConfig benchMachine();

/** Full-run truth IPC of @p gen over @p insts from the committed file;
 *  throws UserError when it is missing. */
double truthIpc(const std::string &golden_dir, const std::string &gen,
                std::uint64_t insts);

/** The populations whose truth is committed: (generator, insts). */
std::vector<std::pair<std::string, std::uint64_t>> truthPopulations();

/** The e2e metric names and units, in output order. */
const std::vector<std::pair<std::string, std::string>> &e2eMetrics();

/** The per-layer metric names and units, in output order. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

} // namespace perfbench

#endif // RSR_PERFBENCH_BENCH_HH
