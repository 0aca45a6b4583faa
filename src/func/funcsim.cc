#include "funcsim.hh"

namespace rsr::func
{

FuncSim::FuncSim(const Program &program) : program(program)
{
    haltInst.op = isa::Opcode::Halt;
    decoded.reserve(program.code.size());
    for (std::uint32_t word : program.code)
        decoded.push_back(isa::decode(word));
    reset();
}

void
FuncSim::reset()
{
    state_ = ArchState{};
    state_.pc = program.entry;
    state_.regs[isa::regSp] = program.initialSp;
    mem_.clear();
    for (std::size_t i = 0; i < program.code.size(); ++i)
        mem_.write(program.codeBase + 4 * i, program.code[i], 4);
    for (const auto &seg : program.data)
        for (std::size_t i = 0; i < seg.bytes.size(); ++i)
            mem_.writeByte(seg.base + i, seg.bytes[i]);
    icount = 0;
    lastPc_ = 0;
    isHalted = false;
}

std::uint64_t
FuncSim::run(std::uint64_t n)
{
    NullObserver none;
    return execute(n, none);
}

} // namespace rsr::func
