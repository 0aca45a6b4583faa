/**
 * @file
 * The functional (architectural) simulator. It executes a Program exactly
 * — registers, memory, and control flow — and reports what it executes to
 * the timing model, the warm-up policies, and the skip-region log.
 *
 * In the paper's framework the functional simulator has two jobs: it keeps
 * architectural state valid while instructions are skipped (cold/warm
 * phases), and its register values seed the timing simulator at each
 * cluster boundary. This implementation is functional-first: the timing
 * model consumes the committed dynamic stream, so architectural state is
 * always owned here.
 *
 * There is one executor, the templated kernel FuncSim::execute(). It
 * runs a whole stretch of instructions with the PC, the last I-cache
 * line and the instruction count in locals, and reports to an observer
 * from inside each opcode's own case: the case already knows whether the
 * instruction is a memory reference or a control transfer, so no
 * consumer re-classifies a record. step() and run() are thin wrappers
 * over the kernel.
 *
 * rsrlint: hot — the kernel is the inner loop of every skipped and
 * measured instruction; keep stream flushes and exceptional paths out.
 */

#ifndef RSR_FUNC_FUNCSIM_HH
#define RSR_FUNC_FUNCSIM_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "func/dyninst.hh"
#include "func/program.hh"
#include "mem/memory.hh"
#include "util/bitutil.hh"
#include "util/logging.hh"

namespace rsr::func
{

/** Architectural register and PC state. */
struct ArchState
{
    std::uint64_t pc = 0;
    std::array<std::uint64_t, isa::numRegs> regs{};
    std::array<double, isa::numRegs> fregs{};
};

/**
 * The observer of FuncSim::execute() that sees nothing, and the base of
 * every other observer: a derived observer hides only the hooks it
 * needs. The kernel calls, per executed instruction and in this order:
 *
 *   fetch(pc)                     first instruction on a new I-cache
 *                                 line (only when observesFetch);
 *   mem(pc, addr, is_store)       in the load and store cases;
 *   branch(pc, next_pc, kind)     in the control-transfer cases (taken
 *                                 is next_pc != pc + 4);
 *   commit(seq, pc, next_pc, eff_addr, inst)
 *                                 after every instruction, for observers
 *                                 that need the whole record.
 *
 * Hooks are resolved statically and inline, so an unused one costs
 * nothing. Run with this observer, the kernel is a plain fast-forward.
 */
struct NullObserver
{
    /** Track I-cache lines and call fetch() (needs FetchObserver). */
    static constexpr bool observesFetch = false;

    void fetch(std::uint64_t) {}
    void mem(std::uint64_t, std::uint64_t, bool) {}
    void branch(std::uint64_t, std::uint64_t, isa::BranchKind) {}
    void
    commit(std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
           const isa::Inst &)
    {}
};

/**
 * Base of observers that want fetch(): carries the I-line mask and the
 * line of the last fetch across execute() calls, so a region run in
 * chunks sees the same line boundaries as one run in a single pass.
 */
struct FetchObserver : NullObserver
{
    static constexpr bool observesFetch = true;

    /**
     * @param iline_mask ~(I-cache line bytes - 1)
     * @param last_line  line of the instruction before the first one
     *                   observed (~0: none, the first fetch is new)
     */
    FetchObserver(std::uint64_t iline_mask, std::uint64_t last_line)
        : ilineMask(iline_mask), lastLine(last_line)
    {}

    std::uint64_t ilineMask;
    std::uint64_t lastLine;
};

/** The committed record execute() reports, as one DynInst. */
inline DynInst
makeDynInst(std::uint64_t seq, std::uint64_t pc, std::uint64_t next_pc,
            std::uint64_t eff_addr, const isa::Inst &inst)
{
    return DynInst{seq, pc, next_pc, eff_addr, inst, next_pc != pc + 4};
}

/**
 * Feed one already-committed record to @p obs as the kernel would have:
 * fetch (when @p new_fetch_block), then the data reference, then the
 * control transfer. Policies use it to define their per-record
 * onSkipInst() through the same hooks their kernel observer runs.
 */
template <class Obs>
void
observeRecord(Obs &obs, const DynInst &d, bool new_fetch_block)
{
    if (new_fetch_block)
        obs.fetch(d.pc);
    if (d.inst.isMem())
        obs.mem(d.pc, d.effAddr, d.inst.isStore());
    if (d.isBranch())
        obs.branch(d.pc, d.nextPc, d.inst.branchKind());
}

/** Execution-driven functional simulator. */
class FuncSim
{
  public:
    /** Load @p program and reset architectural state. */
    explicit FuncSim(const Program &program);

    /** Re-load the program image and reset all state. */
    void reset();

    /**
     * The executor: run at most @p n instructions, reporting each to
     * @p obs from the executing opcode's case (see NullObserver).
     *
     * @return the number executed; fewer than @p n once the program
     *         halts (the halt instruction itself is neither counted nor
     *         reported).
     */
    template <class Obs>
    std::uint64_t execute(std::uint64_t n, Obs &obs);

    /**
     * Execute one instruction.
     *
     * @param out If non-null, filled with the committed record.
     * @return false once the program has halted (the halt instruction
     *         itself is not reported).
     */
    bool step(DynInst *out = nullptr);

    /** Run at most @p n instructions; returns the number executed. */
    std::uint64_t run(std::uint64_t n);

    bool halted() const { return isHalted; }
    std::uint64_t instCount() const { return icount; }
    std::uint64_t pc() const { return state_.pc; }
    /** PC of the most recently executed instruction (0 before any). */
    std::uint64_t lastPc() const { return lastPc_; }

    const ArchState &state() const { return state_; }
    ArchState &state() { return state_; }
    const mem::Memory &memory() const { return mem_; }
    mem::Memory &memory() { return mem_; }

    /** Read an integer register (r0 reads as zero). */
    std::uint64_t reg(unsigned idx) const { return state_.regs[idx]; }
    /** Read an FP register. */
    double freg(unsigned idx) const { return state_.fregs[idx]; }

  private:
    void
    writeReg(unsigned idx, std::uint64_t value)
    {
        if (idx != 0)
            state_.regs[idx] = value;
    }

    const Program &program;
    /**
     * Pre-decoded code segment, indexed by (pc - codeBase) / 4: a
     * dynamic instruction costs one bounds check and an indexed load,
     * never a re-decode. PCs outside the code segment (or misaligned)
     * resolve to haltInst.
     */
    std::vector<isa::Inst> decoded;
    ArchState state_;
    mem::Memory mem_;
    std::uint64_t icount = 0;
    std::uint64_t lastPc_ = 0;
    bool isHalted = false;
    isa::Inst haltInst;
};

/**
 * Fills one DynInst from the commit hook: the step() observer. It writes
 * the fields in place; assigning a makeDynInst() temporary compiled to a
 * build-then-copy through the stack on every step().
 */
struct RecordObserver : NullObserver
{
    explicit RecordObserver(DynInst &out) : out(out) {}

    void
    commit(std::uint64_t seq, std::uint64_t pc, std::uint64_t next_pc,
           std::uint64_t eff_addr, const isa::Inst &inst)
    {
        out.seq = seq;
        out.pc = pc;
        out.nextPc = next_pc;
        out.effAddr = eff_addr;
        out.inst = inst;
        out.taken = next_pc != pc + 4;
    }

    DynInst &out;
};

// Forced inline: step() runs the kernel for one instruction at a time,
// and an out-of-line call per step() cost the timing model's feed its
// set-up and register spills on every instruction.
template <class Obs>
[[gnu::always_inline]] inline std::uint64_t
FuncSim::execute(std::uint64_t n, Obs &obs)
{
    if (isHalted)
        return 0;

    // Everything the loop reads per instruction lives in locals; only
    // architectural registers and memory are touched through `this`.
    const isa::Inst *const code = decoded.data();
    const std::uint64_t code_base = program.codeBase;
    const std::uint64_t code_end = program.codeEnd();
    auto &r = state_.regs;
    auto &f = state_.fregs;
    std::uint64_t pc = state_.pc;
    std::uint64_t last_pc = lastPc_;
    std::uint64_t last_line = 0;
    if constexpr (Obs::observesFetch)
        last_line = obs.lastLine;

    std::uint64_t done = 0;
    for (; done < n; ++done) {
        const isa::Inst &in =
            pc >= code_base && pc < code_end && (pc & 3) == 0
                ? code[(pc - code_base) >> 2]
                : haltInst;

        if constexpr (Obs::observesFetch) {
            // The halt is not reported, its fetch included.
            const std::uint64_t line = pc & obs.ilineMask;
            if (line != last_line && in.op != isa::Opcode::Halt) {
                last_line = line;
                obs.fetch(pc);
            }
        }

        std::uint64_t next_pc = pc + 4;
        std::uint64_t eff_addr = 0;

        const auto s1 = r[in.rs1];
        const auto s2 = r[in.rs2];
        const auto simm = static_cast<std::int64_t>(in.imm);

        using isa::BranchKind;
        using isa::Opcode;
        switch (in.op) {
          case Opcode::Nop:
            break;
          case Opcode::Halt:
            isHalted = true;
            goto stop;

          case Opcode::Add: writeReg(in.rd, s1 + s2); break;
          case Opcode::Sub: writeReg(in.rd, s1 - s2); break;
          case Opcode::And: writeReg(in.rd, s1 & s2); break;
          case Opcode::Or: writeReg(in.rd, s1 | s2); break;
          case Opcode::Xor: writeReg(in.rd, s1 ^ s2); break;
          case Opcode::Sll: writeReg(in.rd, s1 << (s2 & 63)); break;
          case Opcode::Srl: writeReg(in.rd, s1 >> (s2 & 63)); break;
          case Opcode::Sra:
            writeReg(in.rd, static_cast<std::uint64_t>(
                                static_cast<std::int64_t>(s1) >> (s2 & 63)));
            break;
          case Opcode::Slt:
            writeReg(in.rd, static_cast<std::int64_t>(s1) <
                                    static_cast<std::int64_t>(s2)
                                ? 1
                                : 0);
            break;
          case Opcode::Sltu: writeReg(in.rd, s1 < s2 ? 1 : 0); break;
          case Opcode::Mul: writeReg(in.rd, s1 * s2); break;
          case Opcode::Div:
            writeReg(in.rd, s2 == 0 ? ~std::uint64_t{0} : s1 / s2);
            break;

          case Opcode::Addi: writeReg(in.rd, s1 + simm); break;
          case Opcode::Andi:
            writeReg(in.rd, s1 & static_cast<std::uint64_t>(simm));
            break;
          case Opcode::Ori:
            writeReg(in.rd, s1 | static_cast<std::uint64_t>(simm));
            break;
          case Opcode::Xori:
            writeReg(in.rd, s1 ^ static_cast<std::uint64_t>(simm));
            break;
          case Opcode::Slti:
            writeReg(in.rd, static_cast<std::int64_t>(s1) < simm ? 1 : 0);
            break;
          case Opcode::Slli: writeReg(in.rd, s1 << (in.imm & 63)); break;
          case Opcode::Srli: writeReg(in.rd, s1 >> (in.imm & 63)); break;
          case Opcode::Lui:
            writeReg(in.rd, static_cast<std::uint64_t>(simm << 16));
            break;

          case Opcode::Lb:
            eff_addr = s1 + simm;
            writeReg(in.rd, static_cast<std::uint64_t>(
                                signExtend(mem_.read(eff_addr, 1), 8)));
            obs.mem(pc, eff_addr, false);
            break;
          case Opcode::Lh:
            eff_addr = s1 + simm;
            writeReg(in.rd, static_cast<std::uint64_t>(
                                signExtend(mem_.read(eff_addr, 2), 16)));
            obs.mem(pc, eff_addr, false);
            break;
          case Opcode::Lw:
            eff_addr = s1 + simm;
            writeReg(in.rd, static_cast<std::uint64_t>(
                                signExtend(mem_.read(eff_addr, 4), 32)));
            obs.mem(pc, eff_addr, false);
            break;
          case Opcode::Ld:
            eff_addr = s1 + simm;
            writeReg(in.rd, mem_.read(eff_addr, 8));
            obs.mem(pc, eff_addr, false);
            break;

          case Opcode::Sb:
            eff_addr = s1 + simm;
            mem_.write(eff_addr, s2, 1);
            obs.mem(pc, eff_addr, true);
            break;
          case Opcode::Sh:
            eff_addr = s1 + simm;
            mem_.write(eff_addr, s2, 2);
            obs.mem(pc, eff_addr, true);
            break;
          case Opcode::Sw:
            eff_addr = s1 + simm;
            mem_.write(eff_addr, s2, 4);
            obs.mem(pc, eff_addr, true);
            break;
          case Opcode::Sd:
            eff_addr = s1 + simm;
            mem_.write(eff_addr, s2, 8);
            obs.mem(pc, eff_addr, true);
            break;

          case Opcode::Fadd: f[in.rd] = f[in.rs1] + f[in.rs2]; break;
          case Opcode::Fsub: f[in.rd] = f[in.rs1] - f[in.rs2]; break;
          case Opcode::Fmul: f[in.rd] = f[in.rs1] * f[in.rs2]; break;
          case Opcode::Fdiv:
            f[in.rd] = f[in.rs2] == 0.0 ? 0.0 : f[in.rs1] / f[in.rs2];
            break;
          case Opcode::Fcmplt:
            writeReg(in.rd, f[in.rs1] < f[in.rs2] ? 1 : 0);
            break;
          case Opcode::Fcvt:
            f[in.rd] = static_cast<double>(static_cast<std::int64_t>(s1));
            break;

          case Opcode::Fld:
            eff_addr = s1 + simm;
            f[in.rd] = std::bit_cast<double>(mem_.read(eff_addr, 8));
            obs.mem(pc, eff_addr, false);
            break;
          case Opcode::Fsd:
            eff_addr = s1 + simm;
            mem_.write(eff_addr, std::bit_cast<std::uint64_t>(f[in.rs2]),
                       8);
            obs.mem(pc, eff_addr, true);
            break;

          case Opcode::Beq:
            if (s1 == s2)
                next_pc = pc + 4 + (simm << 2);
            obs.branch(pc, next_pc, BranchKind::Conditional);
            break;
          case Opcode::Bne:
            if (s1 != s2)
                next_pc = pc + 4 + (simm << 2);
            obs.branch(pc, next_pc, BranchKind::Conditional);
            break;
          case Opcode::Blt:
            if (static_cast<std::int64_t>(s1) <
                static_cast<std::int64_t>(s2))
                next_pc = pc + 4 + (simm << 2);
            obs.branch(pc, next_pc, BranchKind::Conditional);
            break;
          case Opcode::Bge:
            if (static_cast<std::int64_t>(s1) >=
                static_cast<std::int64_t>(s2))
                next_pc = pc + 4 + (simm << 2);
            obs.branch(pc, next_pc, BranchKind::Conditional);
            break;

          case Opcode::J:
            next_pc = pc + 4 + (simm << 2);
            obs.branch(pc, next_pc, BranchKind::DirectJump);
            break;
          case Opcode::Jal:
            writeReg(in.rd, pc + 4);
            next_pc = pc + 4 + (simm << 2);
            obs.branch(pc, next_pc,
                       in.rd != 0 ? BranchKind::Call
                                  : BranchKind::DirectJump);
            break;
          case Opcode::Jalr:
            next_pc = s1 & ~std::uint64_t{3};
            writeReg(in.rd, pc + 4);
            obs.branch(pc, next_pc, in.branchKind());
            break;

          default:
            // decode() maps every unknown word to Halt.
            rsr_assert(false, "unhandled opcode in executor");
        }

        obs.commit(icount + done, pc, next_pc, eff_addr, in);
        last_pc = pc;
        pc = next_pc;
    }

stop:
    state_.pc = pc;
    lastPc_ = last_pc;
    icount += done;
    if constexpr (Obs::observesFetch)
        obs.lastLine = last_line;
    return done;
}

inline bool
FuncSim::step(DynInst *out)
{
    if (!out) {
        NullObserver none;
        return execute(1, none) == 1;
    }
    RecordObserver record(*out);
    return execute(1, record) == 1;
}

} // namespace rsr::func

#endif // RSR_FUNC_FUNCSIM_HH
