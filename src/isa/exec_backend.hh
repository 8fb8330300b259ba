/**
 * @file
 * The functional execution backend interface.
 *
 * A backend executes a CryptISA Program for correctness and streams
 * the dynamic instruction sequence to a TraceSink. The record phase of
 * every sweep runs exactly one backend per kernel; which one is a
 * performance choice, never a semantics choice: all backends must
 * produce field-for-field identical DynInst streams, identical
 * architectural side effects (registers, memory), and identical traps
 * (same cause at the same dynamic sequence number) for the same
 * program and initial state. The driver enforces stream identity with
 * a differential check before adopting a non-interpreter backend (see
 * driver/trace.cc), and tests/isa/test_backends.cc enforces it across
 * the whole kernel catalog.
 *
 * Two backends exist today:
 *
 *  - isa::Machine           the reference interpreter (machine.hh);
 *                           supports fault injection and is the
 *                           semantic baseline every other backend is
 *                           differenced against.
 *  - isa::ThreadedMachine   a pre-decoded threaded-code executor
 *                           (threaded_machine.hh) built for record
 *                           throughput; no fault support.
 */

#ifndef CRYPTARCH_ISA_EXEC_BACKEND_HH
#define CRYPTARCH_ISA_EXEC_BACKEND_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/program.hh"
#include "isa/trap.hh"

namespace cryptarch::isa
{

/**
 * A scheduled single-bit (or multi-bit) state corruption, applied just
 * before the dynamic instruction with sequence number @p seq executes.
 * The fault-injection harness (src/verify/faults.hh) uses these to
 * prove the trap/oracle checks detect real corruption. Only backends
 * with supportsFaults() honor them (the interpreter).
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
};

class PackedTrace;

/** Consumer of the dynamic instruction stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void emit(const DynInst &inst) = 0;

    /**
     * Optional packed fast path. A sink whose only action is appending
     * the stream to a PackedTrace may return it here (and report via
     * @p keepResults whether result values must be kept); a producer
     * that pre-packs fixed records at decode time (the threaded
     * backend) then appends rows directly instead of materializing a
     * DynInst per instruction. Sinks that observe instructions —
     * comparators, schedulers — keep the default and
     * always receive emit() calls. The packed rows a fast-path
     * producer appends must decode to exactly the stream emit() would
     * have received; the backend-adoption gate checks the product of
     * whichever path the recording actually uses.
     */
    virtual PackedTrace *
    packedSink(bool &keepResults)
    {
        keepResults = false;
        return nullptr;
    }
};

/** Statistics of one functional run. */
struct RunStats
{
    uint64_t instructions = 0;
    uint64_t cyclesHint = 0; ///< unused by the machine; for sinks
};

/** Which concrete backend an ExecBackend is. */
enum class ExecBackendKind : uint8_t
{
    Interpreter, ///< isa::Machine
    Threaded,    ///< isa::ThreadedMachine
};

/** Stable backend name ("interpreter", "threaded"). */
const char *execBackendName(ExecBackendKind kind);

/**
 * A functional execution backend: flat byte-addressed data memory, 64
 * architectural registers, and a run() that executes a Program from
 * instruction 0 until Halt while emitting every retired instruction.
 *
 * The memory/register accessors exist so kernel installation
 * (kernels::KernelBuild::install) and the record-time oracle
 * (verify::verifyKernelOutput) work against any backend.
 */
class ExecBackend
{
  public:
    virtual ~ExecBackend() = default;

    virtual ExecBackendKind kind() const = 0;

    /** Read an architectural register. */
    virtual uint64_t reg(Reg r) const = 0;
    /** Write an architectural register (writes to R63 are dropped). */
    virtual void setReg(Reg r, uint64_t v) = 0;

    /** Bulk memory initialization/readback. */
    virtual void writeMem(uint64_t addr,
                          const std::vector<uint8_t> &bytes) = 0;
    virtual std::vector<uint8_t> readMem(uint64_t addr, size_t n)
        const = 0;
    virtual void write32(uint64_t addr, uint32_t v) = 0;
    virtual uint32_t read32(uint64_t addr) const = 0;

    /**
     * Execute @p program from instruction 0 until Halt, emitting each
     * retired instruction to @p sink (may be null). Throws isa::Trap
     * (a std::runtime_error) on bad memory accesses, running off the
     * end of the program, invalid SBOX table designators, or exceeding
     * @p max_insts; the trap carries the faulting pc, sequence number
     * and a register-file snapshot.
     */
    virtual RunStats run(const Program &program, TraceSink *sink = nullptr,
                         uint64_t max_insts = 1ull << 32) = 0;

    /**
     * Optional one-time program preparation (pre-decode for the
     * threaded backend). run() prepares on demand when this was not
     * called; calling it first lets the driver time decode separately
     * from steady-state execution (RecordTiming::decodeSeconds).
     */
    virtual void prepare(const Program &program) { (void)program; }

    /** Whether scheduleFault() is honored by run(). */
    virtual bool supportsFaults() const { return false; }

    /**
     * Schedule a state corruption for the next run(). The base
     * implementation throws std::logic_error: the driver routes
     * fault-injection runs to the interpreter backend, never here.
     */
    virtual void scheduleFault(const InjectedFault &fault);

    /**
     * When strict SBOX semantics are enabled (the default), non-aliased
     * SBOX reads observe a snapshot of their table taken at the first
     * access after the last SBOXSYNC — the paper's visibility rule.
     * Disabling makes SBOX read live memory.
     */
    virtual void setStrictSboxSync(bool strict) = 0;
};

/** Construct a backend of @p kind with @p mem_bytes of data memory. */
std::unique_ptr<ExecBackend> makeExecBackend(ExecBackendKind kind,
                                             size_t mem_bytes = 1 << 22);

namespace detail
{

/**
 * Shared trap raisers, so every backend produces byte-identical trap
 * messages for the same failure — the differential tests compare trap
 * causes and the human does the same with what() strings.
 */
[[noreturn]] void throwOobAccess(uint64_t addr, unsigned size,
                                 size_t mem_size, bool is_store);
[[noreturn]] void throwMisaligned(uint64_t addr, unsigned size,
                                  bool is_store);
[[noreturn]] void throwPcOverrun(uint32_t pc, size_t program_size);
[[noreturn]] void throwFuelExhausted(uint64_t max_insts);
[[noreturn]] void throwInvalidSboxTable(unsigned table_id);

/** Bounds check against a flat @p mem_size byte memory. */
inline void
checkAddrRange(uint64_t addr, unsigned size, size_t mem_size,
               bool is_store)
{
    // Overflow-proof form of addr + size > mem_size.
    if (addr > mem_size || size > mem_size - addr)
        throwOobAccess(addr, size, mem_size, is_store);
}

/** Alpha-style natural alignment for sized accesses. */
inline void
checkAlign(uint64_t addr, unsigned size, bool is_store)
{
    if (size > 1 && (addr & (size - 1)))
        throwMisaligned(addr, size, is_store);
}

} // namespace detail

} // namespace cryptarch::isa

#endif // CRYPTARCH_ISA_EXEC_BACKEND_HH
