/**
 * @file
 * Record-once / replay-many dynamic kernel traces.
 *
 * The functional Machine is deterministic, so the dynamic instruction
 * stream of a (cipher, variant, session) triple is a pure function of
 * its inputs — it does not depend on the timing model observing it.
 * RecordedTrace captures that stream through the ordinary
 * isa::TraceSink interface and can replay it into any number of
 * sim::OooScheduler instances, which is how the sweep runner turns a
 * (cipher x variant x model) grid into one functional interpretation
 * per kernel instead of one per timing model — the record/replay
 * structure SimpleScalar-style studies exploit.
 *
 * A trace stores only what the program does not fix: the decoded
 * program (isa::decode), one bit per conditional branch and one u32
 * address per memory operation, 0.5-2.1 B/inst on the catalog kernels
 * at 64 KB. It lives in memory only, and replay walks the program
 * from pc 0.
 */

#ifndef CRYPTARCH_DRIVER_TRACE_HH
#define CRYPTARCH_DRIVER_TRACE_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "driver/workload.hh"
#include "isa/machine.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"

namespace cryptarch::driver
{

/** Stays only for perfbench's report; traces are never compressed. */
enum class TraceCompression : uint8_t { Off, Auto, On };

/** Stays only for perfbench's report; always Off. */
inline TraceCompression traceCompression() { return TraceCompression::Off; }

/** Stays only for perfbench's report; the interpreter records all. */
enum class ExecBackendSelection : uint8_t { Interpreter, Threaded, Auto };

/** Stays only for perfbench's report; always Interpreter. */
inline ExecBackendSelection
execBackendSelection()
{
    return ExecBackendSelection::Interpreter;
}

/** Stays only for perfbench's report; there is no adoption gate, so 0. */
inline uint64_t backendGateChecks() { return 0; }

/** Stays only for perfbench's report; there is no adoption gate, so 0. */
inline uint64_t backendGateFallbacks() { return 0; }

/**
 * Where recordKernelTrace's wall-clock time went, in seconds. The
 * fields are disjoint phases of the call, so their sum never exceeds
 * its wall clock (the driver tests assert it). recordSeconds is only
 * the interpreter run, without workload synthesis or kernel build.
 */
struct RecordTiming
{
    double setupSeconds = 0;    ///< workload synthesis + kernel build
    double recordSeconds = 0;   ///< the trace-producing run
    double decodeSeconds = 0;   ///< stays only for perfbench's report; 0
    double gateSeconds = 0;     ///< stays only for perfbench's report; 0
    double verifySeconds = 0;   ///< record-time output oracle
    double compressSeconds = 0; ///< stays only for perfbench's report; 0
};

/**
 * A captured dynamic instruction stream of one program. Everything
 * but seq, addr, taken and nextPc is a pure function of the pc (see
 * isa::DecodedInst), and the pc of each instruction is the nextPc of
 * the one before, so the trace keeps the decoded program plus the
 * dynamic remainder. Result values are dropped — no timing model reads
 * them, and the value-prediction studies attach their sinks live to
 * the Machine instead of replaying.
 */
class RecordedTrace final : public isa::TraceSink
{
  public:
    /** An empty trace of the empty program; assign a recording to it. */
    RecordedTrace() = default;

    /** An empty trace that accepts the stream of @p program. */
    explicit RecordedTrace(const isa::Program &program)
        : program_(isa::decode(program))
    {
    }

    /**
     * Append @p inst. Throws std::logic_error when the stream leaves
     * the program (its pc is not the previous nextPc, or 0 first), and
     * std::out_of_range on a memory address >= 2^32.
     */
    void
    emit(const isa::DynInst &inst) override
    {
        if (inst.pc != nextPc_ || inst.pc >= program_.size())
            throw std::logic_error("RecordedTrace: stream left its program");
        const isa::DecodedInst &d = program_[inst.pc];
        if (d.conditional)
            taken_.push_back(inst.taken);
        if (d.tmpl.isLoad || d.tmpl.isStore) {
            if (inst.addr >> 32)
                throw std::out_of_range(
                    "RecordedTrace: address beyond 32 bits");
            addrs_.push_back(static_cast<uint32_t>(inst.addr));
        }
        nextPc_ = inst.nextPc;
        ++count_;
    }

    /** Feed the captured stream, in order, into any sink. */
    void replay(isa::TraceSink &sink) const;

    /** Replay into a fresh OooScheduler for @p cfg; returns its stats. */
    sim::SimStats replay(const sim::MachineConfig &cfg) const;

    /** Dynamic instruction count (the 1-CPI machine's cycle count). */
    uint64_t instructions() const { return count_; }

    bool empty() const { return instructions() == 0; }

    /** Bytes held: decoded program, taken bits and addresses. */
    size_t
    storedBytes() const
    {
        return program_.size() * sizeof(isa::DecodedInst)
            + (taken_.size() + 7) / 8 + addrs_.size() * sizeof(uint32_t);
    }

    /** Stays only for perfbench's report; storedBytes(). */
    size_t packedEquivalentBytes() const { return storedBytes(); }

    /** Stays only for perfbench's report; always false. */
    bool isCompressed() const { return false; }

  private:
    template <class Sink> void feed(Sink &sink) const;

    std::vector<isa::DecodedInst> program_;
    std::vector<bool> taken_;     ///< one per conditional branch
    std::vector<uint32_t> addrs_; ///< one per memory operation
    uint32_t nextPc_ = 0;         ///< pc the next emit must carry
    uint64_t count_ = 0;
};

/**
 * Build the (cipher, variant, direction) kernel over the standard
 * deterministic workload for @p bytes, run it functionally exactly
 * once on the interpreter, and capture the trace. Increments
 * functionalRuns().
 *
 * Every recording is oracle-checked before any model replays it: the
 * machine's output buffer is compared byte-for-byte against the
 * reference cipher (decrypt kernels consume the reference ciphertext
 * and must recover the plaintext). A mismatch throws
 * verify::VerifyError, so no timing figure can be computed from a
 * functionally wrong run.
 *
 * @p timing, when non-null, receives the wall-clock split between
 * setup, the functional run and the oracle — the bench drivers report
 * these as separate phases.
 */
RecordedTrace recordKernelTrace(crypto::CipherId cipher,
                                kernels::KernelVariant variant,
                                size_t bytes = session_bytes,
                                kernels::KernelDirection direction
                                    = kernels::KernelDirection::Encrypt,
                                RecordTiming *timing = nullptr);

/**
 * Process-wide count of functional Machine interpretations performed
 * through the driver — the instrumentation the driver tests use to
 * prove a sweep interprets each kernel exactly once, no matter how
 * many timing models it feeds.
 */
uint64_t functionalRuns();

} // namespace cryptarch::driver

#endif // CRYPTARCH_DRIVER_TRACE_HH
