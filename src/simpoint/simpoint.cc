#include "simpoint.hh"

#include <algorithm>
#include <memory>
#include <numeric>

#include "core/sampled_sim.hh"
#include "core/warmup.hh"

namespace rsr::simpoint
{

SimPointSelection
pickSimPoints(const func::Program &program, std::uint64_t total_insts,
              const SimPointConfig &config)
{
    const BbvProfile prof =
        profileBbv(program, total_insts, config.intervalSize);
    const auto projected =
        projectBbv(prof, config.projectedDims, config.seed);
    const Clustering clustering = pickClustering(
        projected, config.maxK, config.seed, config.bicThreshold);
    const auto reps = representativePoints(projected, clustering);

    // Sort points by execution order, carrying their weights along.
    std::vector<std::size_t> order(reps.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return reps[a] < reps[b]; });

    SimPointSelection sel;
    sel.intervalSize = config.intervalSize;
    sel.k = clustering.k;
    const double total = static_cast<double>(projected.size());
    for (std::size_t c : order) {
        sel.intervals.push_back(reps[c]);
        sel.weights.push_back(
            static_cast<double>(clustering.sizes[c]) / total);
    }
    return sel;
}

SimPointRunResult
runSimPoints(const func::Program &program,
             const SimPointSelection &selection, bool smarts_warmup,
             const core::MachineConfig &machine_config)
{
    SimPointRunResult res;
    if (selection.intervals.empty())
        return res;

    // The points are an explicit schedule for the sampled-run driver;
    // everything between them is a skip region under the warm-up policy.
    core::SampledConfig config;
    config.machine = machine_config;
    for (const std::uint64_t interval : selection.intervals)
        config.explicitSchedule.push_back(
            {interval * selection.intervalSize, selection.intervalSize});
    config.totalInsts = config.explicitSchedule.back().start +
                        selection.intervalSize;

    std::unique_ptr<core::WarmupPolicy> policy;
    if (smarts_warmup)
        policy = core::FunctionalWarmup::smarts();
    else
        policy = std::make_unique<core::NoWarmup>();
    const core::SampledResult run =
        core::runSampled(program, *policy, config);

    for (std::size_t p = 0; p < run.clusterIpc.size(); ++p)
        res.ipc += selection.weights[p] * run.clusterIpc[p];
    res.hotInsts = run.hotInsts;
    res.seconds = run.seconds;
    return res;
}

} // namespace rsr::simpoint
