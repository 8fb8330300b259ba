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
 * Every stream is stored as one PackedTrace (see isa/packed_trace.hh,
 * ~14 B/inst), in memory only, and every replay is a sequential read
 * of it.
 */

#ifndef CRYPTARCH_DRIVER_TRACE_HH
#define CRYPTARCH_DRIVER_TRACE_HH

#include <cstdint>
#include <vector>

#include "driver/workload.hh"
#include "isa/machine.hh"
#include "isa/packed_trace.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"

namespace cryptarch::driver
{

/** Stays only for perfbench's report; traces are never compressed. */
enum class TraceCompression : uint8_t { Off, Auto, On };

/** Stays only for perfbench's report; always Off. */
inline TraceCompression traceCompression() { return TraceCompression::Off; }

/**
 * Process-wide execution-backend policy for the record phase, settable
 * programmatically or via the CRYPTARCH_EXEC_BACKEND environment
 * variable ("interpreter", "threaded", "auto"; default auto).
 *
 *   Interpreter  record with the reference interpreter only.
 *   Threaded     record with the pre-decoded threaded-code backend.
 *   Auto         like Threaded (the split leaves room for future
 *                heuristics, e.g. interpreting tiny sessions whose
 *                pre-decode would dominate).
 *
 * Adoption is differentially gated: the first recording of each
 * (cipher, variant, direction) under Threaded/Auto runs the
 * interpreter too and proves the threaded DynInst stream
 * field-for-field identical (results included) before the threaded
 * stream is used; any divergence or trap difference permanently falls
 * back to the interpreter for that kernel. Fault-injection runs never
 * come through here — the fault harness drives isa::Machine directly,
 * the only backend with supportsFaults().
 */
enum class ExecBackendSelection : uint8_t { Interpreter, Threaded, Auto };

ExecBackendSelection execBackendSelection();
void setExecBackendSelection(ExecBackendSelection sel);

/** Differential backend-adoption checks performed (first-use gates). */
uint64_t backendGateChecks();
/** Gate failures that fell back to the interpreter stream. */
uint64_t backendGateFallbacks();
/** Recordings whose returned trace came from the threaded backend. */
uint64_t threadedRecordings();
/** Forget all gate verdicts (tests/benches re-exercising the gate). */
void resetExecBackendGate();

/**
 * Where recordKernelTrace's wall-clock time went, in seconds. The
 * fields are disjoint phases of the call, so their sum never exceeds
 * its wall clock (the driver tests assert it). recordSeconds is
 * deliberately ONLY the producing run — setup and pre-decode are
 * split out so per-backend record_seconds columns compare the
 * executors, not the workload synthesis both share.
 */
struct RecordTiming
{
    double setupSeconds = 0;    ///< workload synthesis + kernel build
    double recordSeconds = 0;   ///< the trace-producing run
    double decodeSeconds = 0;   ///< threaded backend pre-decode
    double gateSeconds = 0;     ///< first-use gate: reference run + compare
    double verifySeconds = 0;   ///< record-time output oracle
    double compressSeconds = 0; ///< stays only for perfbench's report; 0
};

/**
 * A captured dynamic instruction stream, stored packed (see
 * packed_trace.hh). Result values are dropped at record time — no
 * timing model reads them, and the value-prediction studies attach
 * their sinks live to the Machine instead of replaying.
 */
class RecordedTrace : public isa::TraceSink
{
  public:
    void
    emit(const isa::DynInst &inst) override
    {
        packed_.append(inst, /*keepResult=*/false);
    }

    /**
     * Recording is a pure packed append (results dropped, same as
     * emit()), so the threaded backend may take its pre-packed row
     * fast path when producing into a RecordedTrace.
     */
    isa::PackedTrace *
    packedSink(bool &keepResults) override
    {
        keepResults = false;
        return &packed_;
    }

    /** Feed the captured stream, in order, into any sink. */
    void replay(isa::TraceSink &sink) const;

    /** Replay into a fresh OooScheduler for @p cfg; returns its stats. */
    sim::SimStats replay(const sim::MachineConfig &cfg) const;

    /** Dynamic instruction count (the 1-CPI machine's cycle count). */
    uint64_t instructions() const { return packed_.size(); }

    bool empty() const { return instructions() == 0; }

    /** The stored stream (use the replay paths for hot loops). */
    const isa::PackedTrace &packed() const { return packed_; }

    /** Stays only for perfbench's report; the packed size. */
    size_t storedBytes() const { return packed_.packedBytes(); }

    /** Stays only for perfbench's report; the packed size. */
    size_t packedEquivalentBytes() const { return packed_.packedBytes(); }

    /** Stays only for perfbench's report; always false. */
    bool isCompressed() const { return false; }

    /** Pre-size the packed encoding for an expected instruction count. */
    void reserveInsts(size_t n) { packed_.reserve(n); }

  private:
    isa::PackedTrace packed_;
};

/**
 * Build the (cipher, variant, direction) kernel over the standard
 * deterministic workload for @p bytes, run it functionally exactly
 * once with the selected execution backend (see ExecBackendSelection;
 * first threaded use of a kernel is differentially gated against the
 * interpreter), and capture the trace. Increments functionalRuns().
 *
 * Every recording is oracle-checked before any model replays it: the
 * machine's output buffer is compared byte-for-byte against the
 * reference cipher (decrypt kernels consume the reference ciphertext
 * and must recover the plaintext). A mismatch throws
 * verify::VerifyError, so no timing figure can be computed from a
 * functionally wrong run.
 *
 * @p timing, when non-null, receives the wall-clock split between
 * setup, the functional run, the backend gate and the oracle — the
 * bench drivers report these as separate phases.
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
