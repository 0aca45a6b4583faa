#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "util/error.hh"

namespace perfbench
{

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string
resultRecord(const rsr::core::SampledResult &r)
{
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "est=%a hot_insts=%llu hot_cycles=%llu skipped=%llu "
                  "warm=%llu logged=%llu recon=%llu mispredicts=%llu",
                  r.estimate.mean,
                  static_cast<unsigned long long>(r.hotInsts),
                  static_cast<unsigned long long>(r.hotCycles),
                  static_cast<unsigned long long>(r.skippedInsts),
                  static_cast<unsigned long long>(
                      r.warmWork.functionalUpdates),
                  static_cast<unsigned long long>(r.warmWork.loggedRecords),
                  static_cast<unsigned long long>(
                      r.warmWork.reconstructionUpdates),
                  static_cast<unsigned long long>(r.branchMispredicts));
    return buf;
}

OpBook::OpBook(const std::string &path, std::uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    const std::string prefix = std::to_string(seed) + " ";
    while (std::getline(in, line)) {
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        const std::size_t key_end = line.find(' ', prefix.size());
        if (key_end == std::string::npos)
            rsr_throw_corrupt("golden line without a record: ", line);
        golden_[line.substr(prefix.size(), key_end - prefix.size())] =
            line.substr(key_end + 1);
    }
}

void
OpBook::fail(const std::string &why)
{
    ++failed_;
    std::cerr << "failed op: " << why << "\n";
}

bool
OpBook::check(const std::string &key, const std::string &record)
{
    const auto [it, first] = seen_.emplace(key, record);
    if (!first && it->second != record) {
        fail(key + ": output changed within one run: '" + record +
             "' after '" + it->second + "'");
        return false;
    }
    if (golden_.empty())
        return true;
    const auto g = golden_.find(key);
    if (g == golden_.end()) {
        fail(key + ": no golden for this key");
        return false;
    }
    if (g->second != record) {
        fail(key + ": '" + record + "' differs from golden '" + g->second +
             "'");
        return false;
    }
    return true;
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name)
    : rec(rec), index(static_cast<int>(rec.spans.size()))
{
    Span s;
    s.name = name;
    s.parent = rec.open.empty() ? -1 : rec.open.back();
    s.op = rec.op_;
    s.startNs = nowNs();
    rec.spans.push_back(s);
    rec.open.push_back(index);
}

SpanRecorder::Scope::~Scope()
{
    rec.spans[static_cast<std::size_t>(index)].endNs = nowNs();
    rec.open.pop_back();
}

std::map<std::string, double>
SpanRecorder::selfSeconds(std::uint32_t op) const
{
    std::map<int, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.op != op)
            continue;
        const double d = static_cast<double>(s.endNs - s.startNs) * 1e-9;
        self[static_cast<int>(i)] += d;
        if (s.parent >= 0)
            self[s.parent] -= d;
    }
    std::map<std::string, double> out;
    for (const auto &[i, secs] : self)
        out[spans[static_cast<std::size_t>(i)].name] += secs;
    return out;
}

void
SpanRecorder::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : spans)
        out << "{\"op\":" << s.op << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
            << ",\"parent\":" << s.parent << "}\n";
    if (!out)
        rsr_throw_io("cannot write spans to ", path);
}

void
LayerShares::add(const std::map<std::string, double> &self,
                 double skip_func_seconds)
{
    for (const auto &[name, s] : self) {
        if (name == "skip") {
            const double f = std::min(s, skip_func_seconds);
            secs["func"] += f;
            secs["warmup"] += s - f;
        } else if (name == "op") {
            secs["other"] += s;
        } else {
            secs[name.substr(0, name.find('.'))] += s;
        }
    }
}

void
LayerShares::publish(Metrics &m) const
{
    double total = 0.0;
    for (const auto &[name, s] : secs)
        total += s;
    for (const char *layer : {"func", "warmup", "reconstruct", "uarch",
                              "capture", "store", "other"}) {
        const auto it = secs.find(layer);
        m[std::string(layer) + ".share"] =
            it == secs.end() || total <= 0.0 ? 0.0 : it->second / total;
    }
}

rsr::core::MachineConfig
benchMachine()
{
    return rsr::core::MachineConfig::scaledDefault();
}

double
truthIpc(const std::string &golden_dir, const std::string &gen,
         std::uint64_t insts)
{
    const std::string path = golden_dir + "/truth.txt";
    std::ifstream in(path);
    std::string name, ipc_text;
    std::uint64_t n = 0;
    while (in >> name >> n >> ipc_text) {
        std::string rest;
        std::getline(in, rest);
        if (name == gen && n == insts)
            return std::strtod(ipc_text.c_str(), nullptr);
    }
    rsr_throw_user("no committed truth for ", gen, " at ", insts,
                   " insts in ", path);
}

const std::vector<std::pair<std::string, std::string>> &
e2eMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"base_ms", "ms"},
        {"fast_ms", "ms"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"workload.build_ms", "ms"},
        {"func.step_ns", "ns"},
        {"warmup.smarts_observe_ns", "ns"},
        {"warmup.rsr_observe_ns", "ns"},
        {"warmup.smarts_updates", "count"},
        {"warmup.rsr_logged_records", "count"},
        {"reconstruct.rsr_ms", "ms"},
        {"reconstruct.ns_per_record", "ns"},
        {"reconstruct.rsr_updates", "count"},
        {"reconstruct.useful_ratio", "ratio"},
        {"uarch.measure_ns", "ns"},
        {"capture.ms_per_cluster", "ms"},
        {"capture.snapshot_bytes", "B"},
        {"store.create_s", "s"},
        {"store.save_s", "s"},
        {"store.bytes", "B"},
        {"store.dedup_ratio", "ratio"},
        {"store.load_s", "s"},
        {"store.decode_us_per_cluster", "us"},
        {"pool.task_us_1w", "us"},
        {"pool.task_us_2w", "us"},
        {"serve.frame_encode_us", "us"},
        {"serve.frame_decode_us", "us"},
        {"serve.result_cache_hit_ratio", "ratio"},
        {"serve.store_reuse_ratio", "ratio"},
        {"serve.shed_ratio", "ratio"},
        {"func.share", "ratio"},
        {"warmup.share", "ratio"},
        {"reconstruct.share", "ratio"},
        {"uarch.share", "ratio"},
        {"capture.share", "ratio"},
        {"store.share", "ratio"},
        {"other.share", "ratio"},
        {"est.smarts_err", "ratio"},
        {"est.rsr_err", "ratio"},
        {"rsr_speedup", "x"},
        {"tracing_overhead", "x"},
        {"host.spin_mops", "Mop/s"},
        {"host.parallelism", "x"},
    };
    return m;
}

} // namespace perfbench
