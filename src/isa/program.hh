/**
 * @file
 * CryptISA programs and the assembler builder used to write them.
 *
 * Kernels are authored in C++ through the Assembler's mnemonic methods
 * (the moral equivalent of the paper's hand-coded assembly). Forward
 * branch references are declared with labels and resolved by
 * finalize().
 */

#ifndef CRYPTARCH_ISA_PROGRAM_HH
#define CRYPTARCH_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/inst.hh"

namespace cryptarch::isa
{

/**
 * An assembly-time failure: undefined or duplicate labels, operands
 * outside their encodable range. Carries the offending label (when
 * label-related) and the instruction index the error was detected at,
 * and names both in what() — the assembler analogue of isa::Trap.
 */
class AsmError : public std::runtime_error
{
  public:
    AsmError(const std::string &detail, std::string label,
             size_t inst_index)
        : std::runtime_error("Assembler: " + detail),
          label_(std::move(label)), index_(inst_index)
    {
    }

    /** The label involved, empty when not label-related. */
    const std::string &label() const { return label_; }
    /** Instruction index where the error was detected. */
    size_t instIndex() const { return index_; }

  private:
    std::string label_;
    size_t index_;
};

/** A finalized instruction sequence. */
struct Program
{
    std::vector<Inst> insts;

    size_t size() const { return insts.size(); }
    const Inst &operator[](size_t i) const { return insts[i]; }

    /** Full disassembly listing, one instruction per line. */
    std::string disassemble() const;
};

/**
 * Builder for CryptISA programs. Register-allocation-free: callers
 * manage registers (the kernels use a simple bump allocator, see
 * @ref RegPool).
 */
class Assembler
{
  public:
    // --- labels and control flow ---
    void label(const std::string &name);
    void br(const std::string &target);
    void beq(Reg a, const std::string &target);
    void bne(Reg a, const std::string &target);
    void blt(Reg a, const std::string &target);
    void bge(Reg a, const std::string &target);
    void halt();

    // --- memory ---
    void ldq(Reg rd, Reg base, int64_t disp = 0);
    void ldl(Reg rd, Reg base, int64_t disp = 0);
    void ldwu(Reg rd, Reg base, int64_t disp = 0);
    void ldbu(Reg rd, Reg base, int64_t disp = 0);
    void stq(Reg value, Reg base, int64_t disp = 0);
    void stl(Reg value, Reg base, int64_t disp = 0);
    void stw(Reg value, Reg base, int64_t disp = 0);
    void stb(Reg value, Reg base, int64_t disp = 0);

    // --- ALU, register and immediate forms ---
    void addq(Reg a, Reg b, Reg d);
    void addq(Reg a, int64_t imm, Reg d);
    void subq(Reg a, Reg b, Reg d);
    void subq(Reg a, int64_t imm, Reg d);
    void addl(Reg a, Reg b, Reg d);
    void addl(Reg a, int64_t imm, Reg d);
    void subl(Reg a, Reg b, Reg d);
    void subl(Reg a, int64_t imm, Reg d);
    void and_(Reg a, Reg b, Reg d);
    void and_(Reg a, int64_t imm, Reg d);
    void bis(Reg a, Reg b, Reg d);
    void bis(Reg a, int64_t imm, Reg d);
    void xor_(Reg a, Reg b, Reg d);
    void xor_(Reg a, int64_t imm, Reg d);
    void bic(Reg a, Reg b, Reg d);
    void bic(Reg a, int64_t imm, Reg d);
    void ornot(Reg a, Reg b, Reg d);
    void sll(Reg a, Reg b, Reg d);
    void sll(Reg a, int64_t imm, Reg d);
    void srl(Reg a, Reg b, Reg d);
    void srl(Reg a, int64_t imm, Reg d);
    void sra(Reg a, int64_t imm, Reg d);
    void sll32(Reg a, Reg b, Reg d);
    void sll32(Reg a, int64_t imm, Reg d);
    void srl32(Reg a, Reg b, Reg d);
    void srl32(Reg a, int64_t imm, Reg d);
    void extbl(Reg a, int64_t byte, Reg d);
    void s4add(Reg a, Reg b, Reg d);
    void s8add(Reg a, Reg b, Reg d);
    void cmpeq(Reg a, Reg b, Reg d);
    void cmpeq(Reg a, int64_t imm, Reg d);
    void cmpult(Reg a, Reg b, Reg d);
    void cmpult(Reg a, int64_t imm, Reg d);
    void cmplt(Reg a, Reg b, Reg d);
    void cmoveq(Reg cond, Reg val, Reg d);
    void cmovne(Reg cond, Reg val, Reg d);
    void mulq(Reg a, Reg b, Reg d);
    void mull(Reg a, Reg b, Reg d);
    void mull(Reg a, int64_t imm, Reg d);

    /** Load a 64-bit constant (counted as one IntAlu instruction). */
    void li(int64_t value, Reg d);
    /** Register move (BIS with zero). */
    void mov(Reg src, Reg d);

    // --- ISA extensions ---
    void rol(Reg a, Reg b, Reg d);
    void ror(Reg a, Reg b, Reg d);
    void rol32(Reg a, Reg b, Reg d);
    void rol32(Reg a, int64_t imm, Reg d);
    void ror32(Reg a, Reg b, Reg d);
    void ror32(Reg a, int64_t imm, Reg d);
    void rolx32(Reg src, int64_t imm, Reg d);
    void rorx32(Reg src, int64_t imm, Reg d);
    void mulmod(Reg a, Reg b, Reg d);
    void sbox(unsigned table_id, unsigned byte_sel, Reg table, Reg index,
              Reg d, bool aliased = false);
    void sboxsync(unsigned table_id = 0);
    void xbox(unsigned byte_sel, Reg src, Reg map, Reg d);
    /** Shi & Lee group permutation (related-work extension). */
    void grp(Reg src, Reg control, Reg d);
    /** Fused substitute-and-XOR (future-work extension): d ^= table
     *  lookup. Three register reads: table, index, d. */
    void sboxx(unsigned table_id, unsigned byte_sel, Reg table,
               Reg index, Reg d, bool aliased = false);

    /** Number of instructions emitted so far. */
    size_t size() const { return insts.size(); }

    /** Instruction index of label @p name, if it is defined. */
    std::optional<uint32_t> labelPc(const std::string &name) const;

    /**
     * Resolve labels and produce the program. Throws std::runtime_error
     * on undefined labels.
     */
    Program finalize();

  private:
    void emit(Inst inst);
    void emitBranch(Opcode op, Reg a, const std::string &target);
    void alu(Opcode op, Reg a, Reg b, Reg d);
    void aluImm(Opcode op, Reg a, int64_t imm, Reg d);
    void load(Opcode op, Reg rd, Reg base, int64_t disp);
    void store(Opcode op, Reg value, Reg base, int64_t disp);

    std::vector<Inst> insts;
    std::map<std::string, int32_t> labels;
    std::vector<std::pair<size_t, std::string>> fixups;
};

/**
 * Trivial bump allocator for scratch registers. Registers 0..62 are
 * allocatable; R63 is the zero register.
 */
class RegPool
{
  public:
    /** Reserve the next free register. Throws when exhausted. */
    Reg
    alloc()
    {
        if (next >= reg_zero.n)
            throw std::runtime_error("RegPool: out of registers");
        return Reg{next++};
    }

    /** Registers currently allocated. */
    unsigned allocated() const { return next; }

  private:
    uint8_t next = 0;
};

} // namespace cryptarch::isa

#endif // CRYPTARCH_ISA_PROGRAM_HH
