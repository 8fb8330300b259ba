/**
 * @file
 * Pre-decoded threaded-code execution backend.
 *
 * The interpreter (isa::Machine) re-derives everything about an
 * instruction every time it executes it: operand sources, functional
 * unit class, memory size, destination-write decision, and — worst of
 * all on the SBOX-heavy kernels — a std::map lookup per substitution
 * read. ThreadedMachine does all of that exactly once per program:
 * decode() lowers each static instruction into a DecodedInst holding a
 * resolved handler id (immediate and register forms are distinct
 * handlers), a pre-filled DynInst template with every static trace
 * field already set, and the resolved operands (register numbers,
 * immediates, branch-target pc). Execution is then a tight
 * dispatch loop — computed-goto direct threading under GCC/Clang, a
 * dense-switch loop elsewhere — that patches only the dynamic fields
 * (seq, address, taken, result) into a copy of the template and
 * streams it to the sink.
 *
 * When the sink reports a packed fast path (TraceSink::packedSink —
 * the driver's RecordedTrace does), even the per-retirement DynInst
 * goes away: decode() additionally pre-packs each instruction's
 * 14-byte PackedTrace fixed record, and retirement appends that row
 * directly with only the dynamic flag bits patched. The rows follow
 * append()'s canonicalization rules exactly, so the recorded trace is
 * identical to one built through emit() — the parity tests compare
 * whole traces from both paths (PackedTrace::operator==) to prove it.
 *
 * Data memory is the same flat byte array the interpreter uses
 * (1 KB-aligned SBOX frames, pow2-sized by default so bounds and
 * alignment checks reduce to single mask/compare operations), and SBOX
 * snapshot visibility is served from a flat per-frame pointer table
 * instead of a map.
 *
 * Semantics are bit-for-bit the interpreter's: identical DynInst
 * streams (tests/isa/test_backends.cc proves this field by field over
 * the whole kernel catalog), identical architectural side effects and
 * identical traps (same cause, same seq, same message). The one
 * deliberate difference: scheduled fault injection is not supported —
 * the driver routes fault runs to the interpreter.
 */

#ifndef CRYPTARCH_ISA_THREADED_MACHINE_HH
#define CRYPTARCH_ISA_THREADED_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/exec_backend.hh"
#include "isa/packed_trace.hh"
#include "isa/program.hh"

namespace cryptarch::isa
{

/** The pre-decoded threaded-code backend (see file header). */
class ThreadedMachine : public ExecBackend
{
  public:
    explicit ThreadedMachine(size_t mem_bytes = 1 << 22);

    ExecBackendKind
    kind() const override
    {
        return ExecBackendKind::Threaded;
    }

    uint64_t reg(Reg r) const override { return regs_[r.n]; }
    void setReg(Reg r, uint64_t v) override;

    void writeMem(uint64_t addr, const std::vector<uint8_t> &bytes)
        override;
    std::vector<uint8_t> readMem(uint64_t addr, size_t n) const override;
    void write32(uint64_t addr, uint32_t v) override;
    uint32_t read32(uint64_t addr) const override;

    /**
     * Pre-decode @p program into the flat handler/operand array. run()
     * decodes on demand; calling prepare() first lets callers time the
     * one-time decode separately from steady-state execution. The
     * decoded form is cached by program identity, so a prepare()
     * directly followed by run() of the same program decodes once.
     */
    void prepare(const Program &program) override;

    RunStats run(const Program &program, TraceSink *sink = nullptr,
                 uint64_t max_insts = 1ull << 32) override;

    void setStrictSboxSync(bool strict) override
    {
        strictSbox_ = strict;
    }

    /**
     * One pre-decoded instruction: a resolved handler id, the operand
     * fields that handler reads, and a DynInst template with every
     * static trace field already filled in.
     */
    struct DecodedInst
    {
        DynInst tmpl;       ///< static trace fields pre-filled
        int64_t imm = 0;    ///< immediate operand / displacement
        uint32_t target = 0; ///< taken-branch successor pc
        uint16_t handler = 0; ///< index into the dispatch table
        uint8_t ra = reg_zero.n;
        uint8_t rb = reg_zero.n;
        uint8_t rc = reg_zero.n;
        uint8_t byteSel = 0; ///< SBOX index byte / XBOX byte position
        bool writes = false; ///< instruction writes rc
        bool bImm = false;  ///< CMOV second operand is the immediate

        /** Pre-packed fixed record of tmpl (PackedTrace::packRowBase). */
        uint8_t row[PackedTrace::row_bytes] = {};
        uint16_t baseFlags = 0;  ///< flag word for the addr/result-free case
        uint16_t takenFlags = 0; ///< conditional branches: flags when taken
    };

  private:
    void decode(const Program &program);
    RunStats exec(TraceSink *sink, PackedTrace *fast, bool keepResults,
                  uint64_t max_insts, uint32_t &pc, uint64_t &seq);
    /** Cold path: snapshot the 1 KB frame at index @p frame. */
    const uint8_t *snapshotFrame(uint64_t frame);
    void clearSnapshots();

    std::array<uint64_t, num_regs> regs_{};
    std::vector<uint8_t> mem_;
    bool strictSbox_ = true;

    /** Per-1KB-frame snapshot pointers (null = live / not taken). */
    std::vector<const uint8_t *> frameSnap_;
    /** Owning storage behind frameSnap_ entries. */
    std::vector<std::unique_ptr<std::array<uint8_t, 1024>>> snapStore_;

    /** Decoded program cache, keyed by identity of the last program. */
    const Program *decodedFor_ = nullptr;
    size_t decodedSize_ = 0;
    std::vector<DecodedInst> code_;
};

} // namespace cryptarch::isa

#endif // CRYPTARCH_ISA_THREADED_MACHINE_HH
