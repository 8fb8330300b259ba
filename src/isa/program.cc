#include "isa/program.hh"

#include <sstream>

namespace cryptarch::isa
{

std::string
Program::disassemble() const
{
    std::ostringstream os;
    for (size_t i = 0; i < insts.size(); i++)
        os << i << ":\t" << isa::disassemble(insts[i]) << "\n";
    return os.str();
}

void
Assembler::emit(Inst inst)
{
    insts.push_back(inst);
}

void
Assembler::label(const std::string &name)
{
    if (labels.count(name)) {
        std::ostringstream os;
        os << "duplicate label '" << name << "' at instruction "
           << insts.size() << " (first defined at instruction "
           << labels[name] << ")";
        throw AsmError(os.str(), name, insts.size());
    }
    labels[name] = static_cast<int32_t>(insts.size());
}

void
Assembler::emitBranch(Opcode op, Reg a, const std::string &target)
{
    Inst inst;
    inst.op = op;
    inst.ra = a;
    fixups.emplace_back(insts.size(), target);
    emit(inst);
}

void Assembler::br(const std::string &t) { emitBranch(Opcode::Br, reg_zero, t); }
void Assembler::beq(Reg a, const std::string &t) { emitBranch(Opcode::Beq, a, t); }
void Assembler::bne(Reg a, const std::string &t) { emitBranch(Opcode::Bne, a, t); }
void Assembler::blt(Reg a, const std::string &t) { emitBranch(Opcode::Blt, a, t); }
void Assembler::bge(Reg a, const std::string &t) { emitBranch(Opcode::Bge, a, t); }

void
Assembler::halt()
{
    Inst inst;
    inst.op = Opcode::Halt;
    emit(inst);
}

void
Assembler::load(Opcode op, Reg rd, Reg base, int64_t disp)
{
    Inst inst;
    inst.op = op;
    inst.ra = base;
    inst.rc = rd;
    inst.imm = disp;
    emit(inst);
}

void
Assembler::store(Opcode op, Reg value, Reg base, int64_t disp)
{
    Inst inst;
    inst.op = op;
    inst.ra = base;
    inst.rc = value;
    inst.imm = disp;
    emit(inst);
}

void Assembler::ldq(Reg rd, Reg base, int64_t d) { load(Opcode::Ldq, rd, base, d); }
void Assembler::ldl(Reg rd, Reg base, int64_t d) { load(Opcode::Ldl, rd, base, d); }
void Assembler::ldwu(Reg rd, Reg base, int64_t d) { load(Opcode::Ldwu, rd, base, d); }
void Assembler::ldbu(Reg rd, Reg base, int64_t d) { load(Opcode::Ldbu, rd, base, d); }
void Assembler::stq(Reg v, Reg base, int64_t d) { store(Opcode::Stq, v, base, d); }
void Assembler::stl(Reg v, Reg base, int64_t d) { store(Opcode::Stl, v, base, d); }
void Assembler::stw(Reg v, Reg base, int64_t d) { store(Opcode::Stw, v, base, d); }
void Assembler::stb(Reg v, Reg base, int64_t d) { store(Opcode::Stb, v, base, d); }

void
Assembler::alu(Opcode op, Reg a, Reg b, Reg d)
{
    Inst inst;
    inst.op = op;
    inst.ra = a;
    inst.rb = b;
    inst.rc = d;
    emit(inst);
}

void
Assembler::aluImm(Opcode op, Reg a, int64_t imm, Reg d)
{
    Inst inst;
    inst.op = op;
    inst.ra = a;
    inst.rc = d;
    inst.useImm = true;
    inst.imm = imm;
    emit(inst);
}

void Assembler::addq(Reg a, Reg b, Reg d) { alu(Opcode::Addq, a, b, d); }
void Assembler::addq(Reg a, int64_t i, Reg d) { aluImm(Opcode::Addq, a, i, d); }
void Assembler::subq(Reg a, Reg b, Reg d) { alu(Opcode::Subq, a, b, d); }
void Assembler::subq(Reg a, int64_t i, Reg d) { aluImm(Opcode::Subq, a, i, d); }
void Assembler::addl(Reg a, Reg b, Reg d) { alu(Opcode::Addl, a, b, d); }
void Assembler::addl(Reg a, int64_t i, Reg d) { aluImm(Opcode::Addl, a, i, d); }
void Assembler::subl(Reg a, Reg b, Reg d) { alu(Opcode::Subl, a, b, d); }
void Assembler::subl(Reg a, int64_t i, Reg d) { aluImm(Opcode::Subl, a, i, d); }
void Assembler::and_(Reg a, Reg b, Reg d) { alu(Opcode::And, a, b, d); }
void Assembler::and_(Reg a, int64_t i, Reg d) { aluImm(Opcode::And, a, i, d); }
void Assembler::bis(Reg a, Reg b, Reg d) { alu(Opcode::Bis, a, b, d); }
void Assembler::bis(Reg a, int64_t i, Reg d) { aluImm(Opcode::Bis, a, i, d); }
void Assembler::xor_(Reg a, Reg b, Reg d) { alu(Opcode::Xor, a, b, d); }
void Assembler::xor_(Reg a, int64_t i, Reg d) { aluImm(Opcode::Xor, a, i, d); }
void Assembler::bic(Reg a, Reg b, Reg d) { alu(Opcode::Bic, a, b, d); }
void Assembler::bic(Reg a, int64_t i, Reg d) { aluImm(Opcode::Bic, a, i, d); }
void Assembler::ornot(Reg a, Reg b, Reg d) { alu(Opcode::Ornot, a, b, d); }
void Assembler::sll(Reg a, Reg b, Reg d) { alu(Opcode::Sll, a, b, d); }
void Assembler::sll(Reg a, int64_t i, Reg d) { aluImm(Opcode::Sll, a, i, d); }
void Assembler::srl(Reg a, Reg b, Reg d) { alu(Opcode::Srl, a, b, d); }
void Assembler::srl(Reg a, int64_t i, Reg d) { aluImm(Opcode::Srl, a, i, d); }
void Assembler::sra(Reg a, int64_t i, Reg d) { aluImm(Opcode::Sra, a, i, d); }
void Assembler::sll32(Reg a, Reg b, Reg d) { alu(Opcode::Sll32, a, b, d); }
void Assembler::sll32(Reg a, int64_t i, Reg d) { aluImm(Opcode::Sll32, a, i, d); }
void Assembler::srl32(Reg a, Reg b, Reg d) { alu(Opcode::Srl32, a, b, d); }
void Assembler::srl32(Reg a, int64_t i, Reg d) { aluImm(Opcode::Srl32, a, i, d); }
void Assembler::extbl(Reg a, int64_t b, Reg d) { aluImm(Opcode::Extbl, a, b, d); }
void Assembler::s4add(Reg a, Reg b, Reg d) { alu(Opcode::S4add, a, b, d); }
void Assembler::s8add(Reg a, Reg b, Reg d) { alu(Opcode::S8add, a, b, d); }
void Assembler::cmpeq(Reg a, Reg b, Reg d) { alu(Opcode::Cmpeq, a, b, d); }
void Assembler::cmpeq(Reg a, int64_t i, Reg d) { aluImm(Opcode::Cmpeq, a, i, d); }
void Assembler::cmpult(Reg a, Reg b, Reg d) { alu(Opcode::Cmpult, a, b, d); }
void Assembler::cmpult(Reg a, int64_t i, Reg d) { aluImm(Opcode::Cmpult, a, i, d); }
void Assembler::cmplt(Reg a, Reg b, Reg d) { alu(Opcode::Cmplt, a, b, d); }
void Assembler::cmoveq(Reg c, Reg v, Reg d) { alu(Opcode::Cmoveq, c, v, d); }
void Assembler::cmovne(Reg c, Reg v, Reg d) { alu(Opcode::Cmovne, c, v, d); }
void Assembler::mulq(Reg a, Reg b, Reg d) { alu(Opcode::Mulq, a, b, d); }
void Assembler::mull(Reg a, Reg b, Reg d) { alu(Opcode::Mull, a, b, d); }
void Assembler::mull(Reg a, int64_t i, Reg d) { aluImm(Opcode::Mull, a, i, d); }

void
Assembler::li(int64_t value, Reg d)
{
    aluImm(Opcode::Bis, reg_zero, value, d);
}

void
Assembler::mov(Reg src, Reg d)
{
    alu(Opcode::Bis, src, reg_zero, d);
}

void Assembler::rol(Reg a, Reg b, Reg d) { alu(Opcode::Rol, a, b, d); }
void Assembler::ror(Reg a, Reg b, Reg d) { alu(Opcode::Ror, a, b, d); }
void Assembler::rol32(Reg a, Reg b, Reg d) { alu(Opcode::Rol32, a, b, d); }
void Assembler::rol32(Reg a, int64_t i, Reg d) { aluImm(Opcode::Rol32, a, i, d); }
void Assembler::ror32(Reg a, Reg b, Reg d) { alu(Opcode::Ror32, a, b, d); }
void Assembler::ror32(Reg a, int64_t i, Reg d) { aluImm(Opcode::Ror32, a, i, d); }
void Assembler::rolx32(Reg src, int64_t i, Reg d) { aluImm(Opcode::Rolx32, src, i, d); }
void Assembler::rorx32(Reg src, int64_t i, Reg d) { aluImm(Opcode::Rorx32, src, i, d); }
void Assembler::mulmod(Reg a, Reg b, Reg d) { alu(Opcode::Mulmod, a, b, d); }

namespace
{

void
checkTableId(unsigned table_id, size_t inst_index)
{
    if (table_id >= max_sbox_tables) {
        std::ostringstream os;
        os << "SBOX table id " << table_id << " out of range (max "
           << max_sbox_tables - 1 << ") at instruction " << inst_index;
        throw AsmError(os.str(), "", inst_index);
    }
}

} // namespace

void
Assembler::sbox(unsigned table_id, unsigned byte_sel, Reg table, Reg index,
                Reg d, bool aliased)
{
    checkTableId(table_id, insts.size());
    Inst inst;
    inst.op = Opcode::Sbox;
    inst.ra = table;
    inst.rb = index;
    inst.rc = d;
    inst.tableId = static_cast<uint8_t>(table_id);
    inst.byteSel = static_cast<uint8_t>(byte_sel & 7);
    inst.aliased = aliased;
    emit(inst);
}

void
Assembler::sboxsync(unsigned table_id)
{
    Inst inst;
    inst.op = Opcode::Sboxsync;
    inst.tableId = static_cast<uint8_t>(table_id);
    emit(inst);
}

void
Assembler::xbox(unsigned byte_sel, Reg src, Reg map, Reg d)
{
    Inst inst;
    inst.op = Opcode::Xbox;
    inst.ra = src;
    inst.rb = map;
    inst.rc = d;
    inst.byteSel = static_cast<uint8_t>(byte_sel & 7);
    emit(inst);
}

void
Assembler::grp(Reg src, Reg control, Reg d)
{
    alu(Opcode::Grp, src, control, d);
}

void
Assembler::sboxx(unsigned table_id, unsigned byte_sel, Reg table,
                 Reg index, Reg d, bool aliased)
{
    checkTableId(table_id, insts.size());
    Inst inst;
    inst.op = Opcode::Sboxx;
    inst.ra = table;
    inst.rb = index;
    inst.rc = d;
    inst.tableId = static_cast<uint8_t>(table_id);
    inst.byteSel = static_cast<uint8_t>(byte_sel & 7);
    inst.aliased = aliased;
    emit(inst);
}

std::optional<uint32_t>
Assembler::labelPc(const std::string &name) const
{
    auto it = labels.find(name);
    if (it == labels.end())
        return std::nullopt;
    return static_cast<uint32_t>(it->second);
}

Program
Assembler::finalize()
{
    for (const auto &[idx, name] : fixups) {
        auto it = labels.find(name);
        if (it == labels.end()) {
            std::ostringstream os;
            os << "undefined label '" << name
               << "' referenced by the branch at instruction " << idx
               << " (" << isa::disassemble(insts[idx]) << ")";
            throw AsmError(os.str(), name, idx);
        }
        insts[idx].target = it->second;
    }
    Program p;
    p.insts = insts;
    return p;
}

} // namespace cryptarch::isa
