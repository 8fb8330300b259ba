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
 * A captured dynamic instruction stream, stored packed (see
 * packed_trace.hh). Result values are dropped at record time — no
 * timing model reads them, and the value-prediction studies attach
 * their sinks live to the Machine instead of replaying.
 */
class RecordedTrace final : public isa::TraceSink
{
  public:
    void
    emit(const isa::DynInst &inst) override
    {
        packed_.append(inst, /*keepResult=*/false);
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
