// The cycle-accurate out-of-order core model: every measured
// instruction passes through here, so this file is a lint-enforced hot
// path (no stream flushes, no throw statements).
//
// In-flight bookkeeping, all sized from CoreParams when run() starts:
// the ROB and the fetch buffer are power-of-two rings indexed by the
// instruction's fetch-order sequence number, so a lookup is a mask;
// operand readiness is pushed by producers (wake-up) instead of polled
// by consumers; and the idle-cycle skip finds the next completion in a
// flat per-slot array. Every modeled outcome is that of an
// oldest-first scan over the whole ROB in every cycle
// (OoOCore.RunResultPinnedAcrossCoreParams pins it).
// rsrlint: hot

#include "core.hh"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace rsr::uarch
{

using func::DynInst;
using isa::BranchKind;
using isa::Format;
using isa::Opcode;
using isa::OpClass;

unsigned
CoreParams::latencyFor(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntMul: return intMulLat;
      case OpClass::IntDiv: return intDivLat;
      case OpClass::FpAdd: return fpAddLat;
      case OpClass::FpMul: return fpMulLat;
      case OpClass::FpDiv: return fpDivLat;
      default: return intAluLat;
    }
}

namespace
{

constexpr std::uint64_t noSeq = ~std::uint64_t{0};
constexpr unsigned fpRegBase = 32; ///< FP regs occupy slots 32..63.

/**
 * Collect the (unified int+FP) source register slots of an instruction.
 * Returns the number written into @p out (at most 2). r0 is skipped.
 */
unsigned
gatherSrcs(const isa::Inst &in, unsigned out[2])
{
    unsigned n = 0;
    auto add_int = [&](unsigned r) {
        if (r != 0)
            out[n++] = r;
    };
    auto add_fp = [&](unsigned r) { out[n++] = fpRegBase + r; };

    switch (in.op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Lui:
      case Opcode::J:
      case Opcode::Jal:
        break;
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmul:
      case Opcode::Fdiv:
      case Opcode::Fcmplt:
        add_fp(in.rs1);
        add_fp(in.rs2);
        break;
      case Opcode::Fcvt:
        add_int(in.rs1);
        break;
      case Opcode::Fsd:
        add_int(in.rs1);
        add_fp(in.rs2);
        break;
      default:
        switch (isa::opcodeFormat(in.op)) {
          case Format::R:
          case Format::S:
          case Format::B:
            add_int(in.rs1);
            add_int(in.rs2);
            break;
          case Format::I:
          case Format::JR:
            add_int(in.rs1);
            break;
          default:
            break;
        }
    }
    return n;
}

/** Destination register slot, or -1 if none. */
int
destOf(const isa::Inst &in)
{
    switch (in.op) {
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmul:
      case Opcode::Fdiv:
      case Opcode::Fcvt:
      case Opcode::Fld:
        return static_cast<int>(fpRegBase + in.rd);
      case Opcode::Fcmplt:
        return in.rd == 0 ? -1 : static_cast<int>(in.rd);
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::J:
        return -1;
      default:
        break;
    }
    switch (isa::opcodeFormat(in.op)) {
      case Format::S:
      case Format::B:
      case Format::J26:
        return -1;
      default:
        return in.rd == 0 ? -1 : static_cast<int>(in.rd);
    }
}

/** Does the fetched prediction mismatch the committed outcome? */
bool
isMispredict(const branch::Prediction &p, const DynInst &d)
{
    switch (d.inst.branchKind()) {
      case BranchKind::Conditional:
        // Direct conditional targets are computable at decode; direction
        // is what the PHT must get right.
        return p.taken != d.taken;
      case BranchKind::DirectJump:
        return false;
      case BranchKind::Call:
        if (d.inst.op == Opcode::Jal)
            return false; // direct call: target from decode
        return !p.targetValid || p.target != d.nextPc;
      case BranchKind::Return:
      case BranchKind::IndirectJump:
        return !p.targetValid || p.target != d.nextPc;
      default:
        return false;
    }
}

} // namespace

std::string
CoreParams::sizeError() const
{
    const struct
    {
        const char *key;
        unsigned value;
    } sizes[] = {
        {"core.fetch_width", fetchWidth},
        {"core.dispatch_width", dispatchWidth},
        {"core.issue_width", issueWidth},
        {"core.retire_width", retireWidth},
        {"core.rob_size", robSize},
        {"core.iq_size", iqSize},
        {"core.lsq_size", lsqSize},
        {"core.num_fus", numFUs},
        {"core.max_unresolved_branches", maxUnresolvedBranches},
        {"core.fetch_buffer_size", fetchBufferSize},
    };
    for (const auto &s : sizes)
        if (s.value == 0 || s.value > maxSize)
            return std::string(s.key) + " = " + std::to_string(s.value) +
                   " is outside [1, " + std::to_string(maxSize) + "]";
    return {};
}

OoOCore::OoOCore(const CoreParams &params, cache::MemoryHierarchy &hier,
                 branch::GsharePredictor &bp)
    : params_(params), hier(hier), bp(bp)
{
    rsr_assert(params_.sizeError().empty(), "invalid core parameters: ",
               params_.sizeError());
}

RunResult
OoOCore::run(InstSource &src, std::uint64_t max_insts)
{
    /** Sentinel of a consumer-link list. */
    constexpr std::uint32_t noLink = ~std::uint32_t{0};

    /**
     * One ROB entry. Instructions are numbered in fetch order from 0
     * (their "sequence"); sequence s lives in slot s & rob_mask, so the
     * ROB is a ring and every lookup by sequence is a mask.
     *
     * Dependences use producer wake-up: a consumer dispatched while a
     * producer is unissued links one of its two per-source links into
     * the producer's consumer list (link id = slot * 2 + source index)
     * and counts it in `pending`. When the producer issues it folds its
     * completion cycle into each linked consumer's readyBase and
     * decrements the count, so issue only tests
     * `pending == 0 && readyBase <= now`.
     */
    struct Flight
    {
        DynInst d;
        /** Earliest issue cycle from operand availability. */
        std::uint64_t readyBase = 0;
        /** Head of the list of consumer links waiting on this entry. */
        std::uint32_t consumers = noLink;
        /** Next link in a producer's list, one per source. */
        std::uint32_t nextLink[2] = {noLink, noLink};
        /** Unissued producers this instruction still waits on. */
        std::uint8_t pending = 0;
        /** Destination register slot, or -1. */
        std::int8_t dst = -1;
        bool issued = false;
        bool isMem = false;
        bool isLoad = false;
        bool isBranch = false;
        bool mispredicted = false;
        bool resolved = false;
    };

    struct Fetched
    {
        DynInst d;
        std::uint64_t availCycle = 0;
        bool mispredicted = false;
    };

    RunResult res;
    if (max_insts == 0)
        return res;

    // Fixed power-of-two rings sized from the parameters. The fetch
    // buffer holds sequences [fb_head, fb_tail) and the ROB holds
    // [rob_head, rob_tail); dispatch moves fb_head to rob_tail, so both
    // counters are the sequence of the entry they point at.
    const std::uint64_t rob_cap = std::bit_ceil(params_.robSize);
    const std::uint64_t rob_mask = rob_cap - 1;
    const std::uint64_t fb_mask =
        std::bit_ceil(params_.fetchBufferSize) - 1;
    const std::uint64_t st_mask = std::bit_ceil(params_.lsqSize) - 1;
    std::vector<Flight> rob(rob_cap);
    std::vector<Fetched> fetch_buf(fb_mask + 1);
    // Completion cycle per ROB slot: 0 while the slot's instruction is
    // unissued; a retired slot keeps a cycle <= now. The idle-cycle
    // skip finds the next completion with a flat scan of this array.
    std::vector<std::uint64_t> complete(rob_cap, 0);
    // In-flight stores in age order (they leave in commit order).
    std::vector<std::uint64_t> st_ring(st_mask + 1);
    std::uint64_t rob_head = 0, rob_tail = 0;
    std::uint64_t fb_head = 0, fb_tail = 0;
    std::uint64_t st_head = 0, st_tail = 0;

    // Age-ordered work lists over the ROB, so the per-cycle stages visit
    // exactly the entries they can act on: sequences of waiting
    // (unissued) instructions and of dispatched-but-unresolved branches.
    // List order is dispatch order, i.e. age order, so each stage sees
    // entries oldest-first exactly as a full ROB scan would.
    std::vector<std::uint64_t> iq_seqs;
    std::vector<std::uint64_t> br_seqs;
    iq_seqs.reserve(params_.iqSize);
    br_seqs.reserve(params_.maxUnresolvedBranches);
    unsigned lsq_count = 0;
    std::uint64_t reg_ready[64] = {};
    std::uint64_t last_writer[64];
    std::fill(std::begin(last_writer), std::end(last_writer), noSeq);

    std::uint64_t now = 0;
    std::uint64_t fetch_blocked_until = 0;
    std::uint64_t waiting_branch = noSeq;
    std::uint64_t cur_fetch_block = ~std::uint64_t{0};
    bool src_done = false;
    bool pending_valid = false;
    DynInst pending;
    std::uint64_t fed = 0;

    const std::uint64_t line_mask =
        ~std::uint64_t{hier.il1().params().lineBytes - 1};
    const unsigned issue_limit =
        std::min(params_.issueWidth, params_.numFUs);

    const std::uint64_t cycle_limit =
        max_insts * 2000 + 10'000'000ull; // runaway-model guard

    while (true) {
        if (src_done && !pending_valid && fb_head == fb_tail &&
            rob_head == rob_tail)
            break;
        rsr_assert(now < cycle_limit, "timing model failed to make "
                   "progress (cycle ", now, ")");

        unsigned resolved_n = 0;
        unsigned committed = 0;
        unsigned issued_n = 0;
        unsigned dispatched = 0;
        unsigned fetched = 0;

        // ------------------------------------------------------- resolve
        // br_seqs holds exactly the dispatched-but-unresolved branches,
        // oldest first; an entry leaves the list the cycle it resolves,
        // and resolution gates commit, so every listed seq is still in
        // the ROB.
        std::size_t kept = 0;
        for (const std::uint64_t seq : br_seqs) {
            Flight &f = rob[seq & rob_mask];
            const std::uint64_t done = complete[seq & rob_mask];
            if (!(f.issued && done <= now)) {
                br_seqs[kept++] = seq;
                continue;
            }
            f.resolved = true;
            ++resolved_n;
            if (f.mispredicted && waiting_branch == seq) {
                fetch_blocked_until = std::max(
                    now, done + params_.minMispredictPenalty);
                waiting_branch = noSeq;
                cur_fetch_block = ~std::uint64_t{0};
            }
        }
        br_seqs.resize(kept);

        // -------------------------------------------------------- commit
        while (rob_head != rob_tail && committed < params_.retireWidth) {
            const Flight &f = rob[rob_head & rob_mask];
            if (!(f.issued && complete[rob_head & rob_mask] <= now))
                break;
            if (f.isBranch && !f.resolved)
                break;
            if (f.isMem) {
                --lsq_count;
                // A committing store is the oldest in-flight store.
                if (!f.isLoad)
                    ++st_head;
            }
            if (f.isBranch) {
                const BranchKind kind = f.d.inst.branchKind();
                bp.update(f.d.pc, kind, f.d.taken, f.d.nextPc);
            }
            ++res.insts;
            ++committed;
            ++rob_head;
        }

        // --------------------------------------------------------- issue
        // Visit the waiting entries oldest first; the ones left waiting
        // are compacted to the front of the list in order.
        kept = 0;
        std::size_t next_iq = 0;
        for (; next_iq < iq_seqs.size() && issued_n < issue_limit;
             ++next_iq) {
            const std::uint64_t seq = iq_seqs[next_iq];
            const std::uint64_t slot = seq & rob_mask;
            Flight &f = rob[slot];
            if (f.pending != 0 || f.readyBase > now) {
                iq_seqs[kept++] = seq;
                continue;
            }

            f.issued = true;
            ++issued_n;
            std::uint64_t done;
            if (f.isLoad) {
                ++res.loads;
                // Store-to-load forwarding: the youngest older in-flight
                // store to the same word supplies the data from the LSQ.
                std::uint64_t fwd = noSeq;
                if (params_.storeForwarding) {
                    for (std::uint64_t i = st_head; i != st_tail; ++i) {
                        const std::uint64_t sseq = st_ring[i & st_mask];
                        if (sseq >= seq)
                            break;
                        const Flight &st = rob[sseq & rob_mask];
                        if (st.issued &&
                            (st.d.effAddr & ~7ull) == (f.d.effAddr & ~7ull))
                            fwd = sseq;
                    }
                }
                if (fwd != noSeq) {
                    ++res.forwardedLoads;
                    done = std::max(now, complete[fwd & rob_mask]) +
                           params_.forwardLatency;
                } else {
                    done = hier.timedLoad(now, f.d.effAddr);
                }
            } else if (f.isMem) {
                ++res.stores;
                hier.timedStore(now, f.d.effAddr);
                done = now + params_.intAluLat;
            } else {
                done = now + params_.latencyFor(f.d.inst.opClass());
            }
            complete[slot] = done;
            // Publish the value-ready time only while this is still the
            // youngest writer; younger writers' consumers are linked to
            // them instead.
            if (f.dst >= 0 && last_writer[f.dst] == seq)
                reg_ready[f.dst] = done;
            // Wake the consumers linked to this producer.
            for (std::uint32_t link = f.consumers; link != noLink;) {
                Flight &c = rob[link >> 1];
                c.readyBase = std::max(c.readyBase, done);
                --c.pending;
                link = c.nextLink[link & 1];
            }
            f.consumers = noLink;
        }
        for (; next_iq < iq_seqs.size(); ++next_iq)
            iq_seqs[kept++] = iq_seqs[next_iq];
        iq_seqs.resize(kept);

        // ------------------------------------------------------ dispatch
        bool dispatch_stalled = false;
        while (dispatched < params_.dispatchWidth && fb_head != fb_tail) {
            const Fetched &fe = fetch_buf[fb_head & fb_mask];
            if (fe.availCycle > now)
                break;
            if (rob_tail - rob_head >= params_.robSize ||
                iq_seqs.size() >= params_.iqSize) {
                dispatch_stalled = true;
                break;
            }
            const bool is_mem = fe.d.inst.isMem();
            if (is_mem && lsq_count >= params_.lsqSize) {
                dispatch_stalled = true;
                break;
            }
            const bool is_br = fe.d.isBranch();
            if (is_br &&
                br_seqs.size() >= params_.maxUnresolvedBranches) {
                dispatch_stalled = true;
                break;
            }

            const std::uint64_t seq = rob_tail;
            const std::uint64_t slot = seq & rob_mask;
            Flight &f = rob[slot];
            f = Flight{};
            f.d = fe.d;
            f.isMem = is_mem;
            f.isLoad = fe.d.inst.isLoad();
            f.isBranch = is_br;
            f.mispredicted = fe.mispredicted;
            f.readyBase = now + 1;
            complete[slot] = 0;

            unsigned srcs[2];
            const unsigned nsrc = gatherSrcs(fe.d.inst, srcs);
            for (unsigned i = 0; i < nsrc; ++i) {
                const unsigned s = srcs[i];
                const std::uint64_t wseq = last_writer[s];
                if (wseq == noSeq || wseq < rob_head) {
                    // No writer in flight: the register file has it.
                    f.readyBase = std::max(f.readyBase, reg_ready[s]);
                    continue;
                }
                Flight &w = rob[wseq & rob_mask];
                if (w.issued) {
                    f.readyBase =
                        std::max(f.readyBase, complete[wseq & rob_mask]);
                    continue;
                }
                const auto link =
                    static_cast<std::uint32_t>(slot * 2 + f.pending);
                f.nextLink[f.pending] = w.consumers;
                w.consumers = link;
                ++f.pending;
            }
            const int dst = destOf(fe.d.inst);
            f.dst = static_cast<std::int8_t>(dst);
            if (dst >= 0)
                last_writer[dst] = seq;

            iq_seqs.push_back(seq);
            if (is_mem) {
                ++lsq_count;
                if (!f.isLoad)
                    st_ring[st_tail++ & st_mask] = seq;
            }
            if (is_br)
                br_seqs.push_back(seq);
            ++rob_tail;
            ++fb_head;
            ++dispatched;
        }

        // --------------------------------------------------------- fetch
        if (now >= fetch_blocked_until && waiting_branch == noSeq) {
            while (fetched < params_.fetchWidth &&
                   fb_tail - fb_head < params_.fetchBufferSize) {
                if (!pending_valid) {
                    if (src_done || fed >= max_insts) {
                        src_done = true;
                        break;
                    }
                    if (!src.next(pending)) {
                        src_done = true;
                        break;
                    }
                    ++fed;
                    pending_valid = true;
                }
                const std::uint64_t blk = pending.pc & line_mask;
                if (blk != cur_fetch_block) {
                    const std::uint64_t done =
                        hier.timedFetch(now, pending.pc);
                    cur_fetch_block = blk;
                    if (done > now + hier.il1().params().hitLatency) {
                        // I-cache miss: group arrives with the line.
                        fetch_blocked_until = done;
                        break;
                    }
                }
                Fetched &fe = fetch_buf[fb_tail & fb_mask];
                fe.d = pending;
                fe.availCycle = now + params_.frontendDelay;
                fe.mispredicted = false;
                bool stop = false;
                if (pending.isBranch()) {
                    const BranchKind kind = pending.inst.branchKind();
                    const branch::Prediction p =
                        bp.predict(pending.pc, kind);
                    if (kind == BranchKind::Conditional)
                        ++res.condBranches;
                    fe.mispredicted = isMispredict(p, pending);
                    if (fe.mispredicted) {
                        ++res.branchMispredicts;
                        waiting_branch = fb_tail;
                        stop = true;
                    } else if (pending.taken) {
                        // Correctly predicted taken: redirect ends the
                        // fetch group; next group starts at the target.
                        cur_fetch_block = ~std::uint64_t{0};
                        stop = true;
                    }
                }
                ++fb_tail;
                pending_valid = false;
                ++fetched;
                if (stop)
                    break;
            }
        }

        // ------------------------------------------------- advance clock
        const bool fetch_blocked =
            (now < fetch_blocked_until || waiting_branch != noSeq) &&
            (pending_valid || (!src_done && fed < max_insts));
        const bool progressed = resolved_n || committed || issued_n ||
                                dispatched || fetched;
        if (progressed) {
            res.dispatchStallCycles += dispatch_stalled ? 1 : 0;
            res.fetchBlockedCycles += fetch_blocked ? 1 : 0;
            ++now;
            continue;
        }
        // Nothing moved, so the issue stage visited every waiting entry
        // and no stage can act before the next event: the earliest
        // in-flight completion, waiting-entry operand arrival, fetch
        // buffer arrival, or end of a fetch block.
        std::uint64_t next = ~std::uint64_t{0};
        for (const std::uint64_t done : complete)
            next = std::min(next, done > now ? done : ~std::uint64_t{0});
        for (const std::uint64_t seq : iq_seqs) {
            const Flight &f = rob[seq & rob_mask];
            if (f.pending == 0 && f.readyBase > now)
                next = std::min(next, f.readyBase);
        }
        if (fb_head != fb_tail &&
            fetch_buf[fb_head & fb_mask].availCycle > now)
            next = std::min(next, fetch_buf[fb_head & fb_mask].availCycle);
        if (waiting_branch == noSeq && fetch_blocked_until > now &&
            (pending_valid || (!src_done && fed < max_insts)))
            next = std::min(next, fetch_blocked_until);
        const std::uint64_t new_now =
            next == ~std::uint64_t{0} ? now + 1 : next;
        const std::uint64_t delta = new_now - now;
        res.dispatchStallCycles += dispatch_stalled ? delta : 0;
        res.fetchBlockedCycles += fetch_blocked ? delta : 0;
        now = new_now;
    }

    res.cycles = now;
    return res;
}

} // namespace rsr::uarch
