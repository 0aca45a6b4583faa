/**
 * @file
 * The skip phase runs inside the functional kernel: FuncSim::execute()
 * reports fetches, data references and branches to one observer per
 * region, from the executing opcode's own case, in chunks that end on
 * the watchdog's poll boundaries. These tests hold it to the per-record
 * definition of policy observation — step() one instruction, check for
 * a new I-cache line, call onSkipInst() — on every Table-2 policy, the
 * generic per-record adapter, and region lengths around the chunk size.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/phase_driver.hh"
#include "core/reuse_latency.hh"
#include "core/warmup.hh"
#include "func/funcsim.hh"
#include "util/deadline.hh"
#include "util/error.hh"
#include "util/snapshot.hh"
#include "workload/synthetic.hh"

namespace rsr
{
namespace
{

/** Region lengths: empty, one instruction, and around the 64K chunk. */
const std::vector<std::uint64_t> kRegions = {0, 1, 65535, 65536, 65537};

/** The reference: one record per instruction, classified afterwards. */
void
referenceSkip(func::FuncSim &fs, core::WarmupPolicy &policy,
              std::uint64_t iline_mask, std::uint64_t skip_len)
{
    policy.beginSkip(skip_len);
    const std::uint64_t observe_from =
        std::min(policy.observeFrom(skip_len), skip_len);
    std::uint64_t last_line = ~std::uint64_t{0};
    func::DynInst d;
    for (std::uint64_t i = 0; i < skip_len; ++i) {
        ASSERT_TRUE(fs.step(&d));
        const std::uint64_t line = d.pc & iline_mask;
        const bool new_block = line != last_line;
        last_line = line;
        if (i >= observe_from)
            policy.onSkipInst(d, new_block);
    }
}

/**
 * A user-defined policy on the generic path that skips the first third
 * of each region and hashes every field of each record it is shown.
 */
class RecordHashPolicy final : public core::WarmupPolicy
{
  public:
    std::string name() const override { return "record-hash"; }

    std::uint64_t
    observeFrom(std::uint64_t skip_len) override
    {
        return skip_len / 3;
    }

    void
    onSkipInst(const func::DynInst &d, bool new_fetch_block) override
    {
        for (std::uint64_t v :
             {d.seq, d.pc, d.nextPc, d.effAddr,
              std::uint64_t{static_cast<std::uint8_t>(d.inst.op)},
              std::uint64_t{d.inst.rd}, std::uint64_t{d.inst.rs1},
              std::uint64_t{d.inst.rs2},
              static_cast<std::uint64_t>(d.inst.imm),
              std::uint64_t{d.taken}, std::uint64_t{new_fetch_block}})
            hash = (hash ^ v) * 0x100000001b3ull;
        ++seen;
    }

    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t seen = 0;
};

using PolicyList = std::vector<std::unique_ptr<core::WarmupPolicy>>;

/** Table 2, MRRL-style warming (generic path), and the hash policy. */
PolicyList
makePolicies()
{
    PolicyList out = core::makeTable2Policies();
    core::ReuseLatencyProfile profile;
    profile.warmupLengths = {0, 1, 40'000, 65'536, 70'000};
    out.push_back(
        std::make_unique<core::ReuseLatencyWarmup>(std::move(profile)));
    out.push_back(std::make_unique<RecordHashPolicy>());
    return out;
}

void
expectSameState(const func::FuncSim &ref, const func::FuncSim &fast,
                const std::string &where)
{
    EXPECT_EQ(ref.instCount(), fast.instCount()) << where;
    EXPECT_EQ(ref.pc(), fast.pc()) << where;
    EXPECT_EQ(ref.state().pc, fast.state().pc) << where;
    EXPECT_EQ(ref.state().regs, fast.state().regs) << where;
    EXPECT_EQ(0, std::memcmp(ref.state().fregs.data(),
                             fast.state().fregs.data(),
                             sizeof(ref.state().fregs)))
        << where;
}

void
expectSameWork(const core::WarmupWork &a, const core::WarmupWork &b,
               const std::string &where)
{
    EXPECT_EQ(a.functionalUpdates, b.functionalUpdates) << where;
    EXPECT_EQ(a.reconstructionUpdates, b.reconstructionUpdates) << where;
    EXPECT_EQ(a.loggedRecords, b.loggedRecords) << where;
    EXPECT_EQ(a.peakLogBytes, b.peakLogBytes) << where;
}

void
expectSameLog(const core::SkipLog &a, const core::SkipLog &b,
              const std::string &where)
{
    ASSERT_EQ(a.mem.size(), b.mem.size()) << where;
    for (std::size_t i = 0; i < a.mem.size(); ++i) {
        const core::MemRecord ra = a.mem.record(i);
        const core::MemRecord rb = b.mem.record(i);
        ASSERT_EQ(ra.addr, rb.addr) << where << " mem record " << i;
        ASSERT_EQ(ra.meta, rb.meta) << where << " mem record " << i;
    }
    ASSERT_EQ(a.branches.size(), b.branches.size()) << where;
    for (std::size_t i = 0; i < a.branches.size(); ++i) {
        const core::BranchRecord &ra = a.branches[i];
        const core::BranchRecord &rb = b.branches[i];
        ASSERT_EQ(ra.pc, rb.pc) << where << " branch record " << i;
        ASSERT_EQ(ra.target, rb.target) << where << " branch record " << i;
        ASSERT_EQ(ra.kind, rb.kind) << where << " branch record " << i;
        ASSERT_EQ(ra.taken, rb.taken) << where << " branch record " << i;
    }
    EXPECT_EQ(a.ghrAtStart, b.ghrAtStart) << where;
}

TEST(SkipKernel, MatchesPerInstructionObservation)
{
    const core::MachineConfig mc = core::MachineConfig::scaledDefault();
    // A live deadline, so the kernel's poll path runs; it never fires.
    const Deadline far(3600.0);

    for (const char *wl : {"gcc", "mcf", "twolf"}) {
        const func::Program program = workload::buildSynthetic(
            workload::standardWorkloadParams(wl));
        PolicyList refs = makePolicies();
        PolicyList fasts = makePolicies();
        ASSERT_EQ(refs.size(), 18u);

        for (std::size_t p = 0; p < refs.size(); ++p) {
            core::WarmupPolicy &ref = *refs[p];
            core::WarmupPolicy &fast = *fasts[p];
            const std::string name = std::string(wl) + " " + ref.name();

            func::FuncSim ref_fs(program);
            func::FuncSim fast_fs(program);
            core::Machine ref_m(mc);
            core::Machine fast_m(mc);
            ref.attach(ref_m);
            fast.attach(fast_m);
            const std::uint64_t iline_mask =
                ~std::uint64_t{ref_m.hier.il1().params().lineBytes - 1};
            core::PhaseCounters counters;
            core::SkipPhase skip(fast_fs, fast, &far, iline_mask, counters);

            for (const std::uint64_t len : kRegions) {
                const std::string where =
                    name + ", region of " + std::to_string(len);
                referenceSkip(ref_fs, ref, iline_mask, len);
                skip.run(len);

                expectSameState(ref_fs, fast_fs, where);
                expectSameWork(ref.work(), fast.work(), where);
                EXPECT_EQ(snapshotToBytes(ref_m), snapshotToBytes(fast_m))
                    << where;
                if (auto *rr = dynamic_cast<
                        core::ReverseReconstructionWarmup *>(&ref))
                    expectSameLog(
                        rr->log(),
                        dynamic_cast<core::ReverseReconstructionWarmup &>(
                            fast)
                            .log(),
                        where);
                if (auto *rh = dynamic_cast<RecordHashPolicy *>(&ref)) {
                    auto &fh = dynamic_cast<RecordHashPolicy &>(fast);
                    EXPECT_EQ(rh->seen, fh.seen) << where;
                    EXPECT_EQ(rh->hash, fh.hash) << where;
                }

                // The cluster boundary: eager reconstruction must see the
                // same log and land on the same state.
                ref.beforeCluster();
                fast.beforeCluster();
                ref.makeMeasureContext();
                fast.makeMeasureContext();
                ref.afterCluster();
                fast.afterCluster();
                expectSameWork(ref.work(), fast.work(), where);
                EXPECT_EQ(snapshotToBytes(ref_m), snapshotToBytes(fast_m))
                    << where << ", after the cluster boundary";
            }
            EXPECT_EQ(counters.skipInsts,
                      std::uint64_t{0 + 1 + 65535 + 65536 + 65537});
        }
    }
}

TEST(SkipKernel, ExpiredDeadlineThrowsInsideSkipRegion)
{
    const func::Program program =
        workload::buildSynthetic(workload::standardWorkloadParams("gcc"));
    const Deadline expired(1e-9);
    while (!expired.expired()) {
    }

    for (const char *name : {"none", "smarts", "rsr20"}) {
        func::FuncSim fs(program);
        core::Machine machine(core::MachineConfig::scaledDefault());
        std::unique_ptr<core::WarmupPolicy> policy =
            core::makePolicyByName(name);
        policy->attach(machine);
        const std::uint64_t iline_mask =
            ~std::uint64_t{machine.hier.il1().params().lineBytes - 1};
        core::PhaseCounters counters;
        core::SkipPhase skip(fs, *policy, &expired, iline_mask, counters);
        try {
            skip.run(200'000);
            ADD_FAILURE() << name << ": no TimeoutError";
        } catch (const TimeoutError &e) {
            EXPECT_NE(std::string(e.what()).find("inside a skip region"),
                      std::string::npos)
                << name << ": " << e.what();
        }
        // The poll comes before the first chunk runs.
        EXPECT_EQ(fs.instCount(), 0u) << name;
    }
}

} // namespace
} // namespace rsr
