/**
 * @file
 * Hot half of the live-point store: blob decode into replay tasks.
 * Every container byte was validated when the store was opened (content
 * hashes, blob presence, trace sizes), so this path runs
 * assertion-checked decode only — no exceptional control flow.
 *
 * rsrlint: hot — decode runs once per replayed cluster; keep stream
 * flushes and exceptional paths out of it.
 */

#include "livepoint_store.hh"

#include "isa/inst.hh"
#include "util/logging.hh"
#include "util/serial.hh"
#include "util/snapshot.hh"

namespace rsr::core
{

ClusterReplayTask
LivePointStore::makeReplayTask(std::size_t index) const
{
    rsr_assert(index < entries_.size(),
               "live-point replay index out of range");
    const LivePointEntry &e = entries_[index];

    ClusterReplayTask task;
    task.index = index;
    task.cluster = e.cluster;
    task.machineState = reader_->blob(e.stateHash);

    // Decode the committed trace. `taken` is recomputed exactly as the
    // functional simulator defines it (nextPc != pc + 4), and sequence
    // numbers are regenerated from the entry's firstSeq — the trace is a
    // contiguous commit stream, and the timing model indexes its ROB by
    // absolute sequence number.
    const auto &trace = reader_->blob(e.traceHash);
    ByteSource in(trace);
    task.trace.resize(e.cluster.size);
    std::uint64_t seq = e.firstSeq;
    for (auto &d : task.trace) {
        d.pc = in.getU64();
        d.nextPc = in.getU64();
        d.effAddr = in.getU64();
        d.inst = isa::decode(in.getU32());
        d.taken = d.nextPc != d.pc + 4;
        d.seq = seq++;
    }
    rsr_assert(in.exhausted(), "trace blob decode left trailing bytes");

    if (e.hasContext) {
        ByteSource ctx_src(reader_->blob(e.contextHash));
        Deserializer ctx(ctx_src);
        task.context = restoreMeasureContext(ctx);
    }
    return task;
}

} // namespace rsr::core
