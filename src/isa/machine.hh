/**
 * @file
 * Functional CryptISA interpreter with dynamic trace emission.
 *
 * The Machine executes programs for correctness (kernel outputs are
 * validated byte-for-byte against the reference ciphers) and streams
 * the dynamic instruction sequence — register dependences, memory
 * addresses, branch outcomes, result values — to a TraceSink. The
 * timing simulator (src/sim) is one such sink; the Figure 7 operation
 * classifier and the section 4.3 value-predictability experiment are
 * others, and the driver's RecordedTrace captures the stream once for
 * replay across a model grid. It is the only executor: every trace is
 * recorded by it, and it honors scheduled fault injection.
 */

#ifndef CRYPTARCH_ISA_MACHINE_HH
#define CRYPTARCH_ISA_MACHINE_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "isa/program.hh"
#include "isa/trap.hh"

namespace cryptarch::isa
{

/**
 * A scheduled single-bit (or multi-bit) state corruption, applied just
 * before the dynamic instruction with sequence number @p seq executes.
 * The fault-injection harness (src/verify/faults.hh) uses these to
 * prove the trap/oracle checks detect real corruption.
 */
struct InjectedFault
{
    uint64_t seq = 0;   ///< dynamic instruction before which to fire
    bool isReg = false; ///< register-file fault vs. data-memory fault
    uint64_t target = 0; ///< register number, or byte address
    uint64_t xorMask = 0; ///< XORed into the register (low byte for mem)
};

/** One dynamically executed instruction, as seen by trace consumers. */
struct DynInst
{
    uint64_t seq = 0;      ///< dynamic sequence number
    uint32_t pc = 0;       ///< static instruction index
    Opcode op = Opcode::Halt;
    OpClass cls = OpClass::Nop;

    uint8_t numSrcs = 0;
    std::array<uint8_t, 3> srcs{}; ///< source register numbers
    uint8_t dest = reg_zero.n;     ///< destination (reg_zero if none)

    bool isLoad = false;
    bool isStore = false;
    uint64_t addr = 0;     ///< effective address for memory ops
    uint8_t size = 0;      ///< access size in bytes
    /**
     * Register gating address generation (the base register). The
     * timing model uses it to decide when a store's address resolves:
     * later loads may not issue before that (unless the model has
     * perfect alias disambiguation).
     */
    uint8_t addrSrc = reg_zero.n;

    bool branch = false;
    bool taken = false;
    uint32_t nextPc = 0;   ///< actual successor pc

    uint8_t tableId = 0;   ///< SBOX table designator
    bool aliased = false;  ///< SBOX aliased flag

    uint64_t result = 0;   ///< value written (for value prediction)

    /** Field-for-field identity. */
    bool operator==(const DynInst &) const = default;
};

/**
 * The static half of one instruction's DynInst: every field that
 * program[pc] fixes. Machine::run starts each executed instruction
 * from it and RecordedTrace replay rebuilds the stream from it, so the
 * two agree by construction. A conditional branch's template is its
 * fall-through (taken false, nextPc pc + 1); Halt's nextPc is 0. The
 * dest is reg_zero unless the instruction writes a register.
 */
struct DecodedInst
{
    DynInst tmpl;             ///< seq, addr and result left zero
    uint32_t target = 0;      ///< successor of a taken conditional branch
    bool conditional = false; ///< taken and nextPc depend on a register
};

/** Decode @p inst, found at static index @p pc. */
DecodedInst decode(const Inst &inst, uint32_t pc);

/** Decode every instruction of @p program, indexed by pc. */
std::vector<DecodedInst> decode(const Program &program);

/** Consumer of the dynamic instruction stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void emit(const DynInst &inst) = 0;
};

/** Statistics of one functional run. */
struct RunStats
{
    uint64_t instructions = 0;
};

/**
 * The functional interpreter. Memory is a flat byte array; programs
 * address it directly (kernels place tables at 1 KB-aligned offsets as
 * the SBOX instruction requires).
 */
class Machine
{
  public:
    explicit Machine(size_t mem_bytes = 1 << 22);

    /** Read an architectural register. */
    uint64_t reg(Reg r) const { return regs[r.n]; }
    /** Write an architectural register (writes to R63 are dropped). */
    void setReg(Reg r, uint64_t v);

    /** Bulk memory initialization/readback. */
    void writeMem(uint64_t addr, const std::vector<uint8_t> &bytes);
    std::vector<uint8_t> readMem(uint64_t addr, size_t n) const;
    void write32(uint64_t addr, uint32_t v);
    uint32_t read32(uint64_t addr) const;

    /**
     * Execute @p program from instruction 0 until Halt, emitting each
     * retired instruction to @p sink (may be null). Throws isa::Trap
     * (a std::runtime_error) on bad memory accesses, running off the
     * end of the program, invalid SBOX table designators, or exceeding
     * @p max_insts; the trap carries the faulting pc, sequence number
     * and a register-file snapshot.
     */
    RunStats run(const Program &program, TraceSink *sink = nullptr,
                 uint64_t max_insts = 1ull << 32);

    /**
     * Schedule a state corruption for the next run() (fault-injection
     * harness). Faults fire immediately before the dynamic instruction
     * with the matching sequence number executes and are consumed by
     * the run. Register faults against R63 are dropped, like writes.
     */
    void
    scheduleFault(const InjectedFault &fault)
    {
        faults.push_back(fault);
    }

  private:
    uint64_t loadSized(uint64_t addr, unsigned size) const;
    void storeSized(uint64_t addr, unsigned size, uint64_t value);
    void checkAddr(uint64_t addr, unsigned size, bool isStore) const;
    /**
     * Non-aliased SBOX read: it observes a snapshot of its table taken
     * at the first access after the last SBOXSYNC — the paper's
     * visibility rule.
     */
    uint32_t sboxRead(uint64_t addr);
    /** Apply scheduled faults due at dynamic sequence number @p seq. */
    void applyFaults(uint64_t seq);

    std::array<uint64_t, num_regs> regs{};
    std::vector<uint8_t> mem;

    /** Snapshots of 1 KB table frames, keyed by frame base address. */
    std::map<uint64_t, std::vector<uint8_t>> sboxSnapshots;

    /** Pending injected faults, consumed as their seq comes up. */
    std::vector<InjectedFault> faults;
};

} // namespace cryptarch::isa

#endif // CRYPTARCH_ISA_MACHINE_HH
