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
 * from pc 0. The address log, the bulk of it, is its own page mapping
 * (util::PageArray), not heap memory, so a dropped trace gives its
 * pages back to the OS at once (DESIGN §8).
 */

#ifndef CRYPTARCH_DRIVER_TRACE_HH
#define CRYPTARCH_DRIVER_TRACE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "driver/workload.hh"
#include "isa/machine.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"
#include "util/page_array.hh"

namespace cryptarch::sim
{
class OutcomeVector;
} // namespace cryptarch::sim

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

    /**
     * An empty trace that accepts the stream of @p program, whose
     * block loop starts at @p loopHead (see kernels::KernelBuild).
     */
    explicit RecordedTrace(const isa::Program &program,
                           std::optional<uint32_t> loopHead = {})
        : program_(isa::decode(program)),
          loopHead_(loopHead.value_or(no_loop_head))
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

    /** Feed the captured stream, in order, into any sink. This is the
     *  full per-instruction path, and the way into a scheduler the
     *  caller set up itself (a timeline window, say). */
    void replay(isa::TraceSink &sink) const;

    /**
     * Replay into a fresh OooScheduler for @p cfg; returns its stats,
     * the same as the full path's. On a window-limited or booking-free
     * model (sim::IterationMemo::fastForwardable) a trace with a loop
     * head fast-forwards block-loop iterations the scheduler already
     * ran from the same state with the same outcomes
     * (sim::IterationMemo); @p fastForwarded, when non-null, receives
     * how many instructions it skipped that way. There every segment
     * (the prologue, then one iteration each) first takes the outcome
     * walk (resolveRuns), and the core schedules the ones the memo
     * does not skip. Under the auditor
     * (sim::setSimAudit) the core also runs every skipped iteration and
     * must agree with the memo, or AuditError is thrown; the count then
     * says how many instructions it checked that way.
     */
    sim::SimStats replay(const sim::MachineConfig &cfg,
                         uint64_t *fastForwarded = nullptr) const;

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
    static constexpr uint32_t no_loop_head = UINT32_MAX;

    /** A position in the stream: the next instruction's seq and pc,
     *  and the next taken bit and address to patch in. */
    struct Cursor
    {
        uint64_t seq = 0;
        uint32_t pc = 0;
        size_t taken = 0;
        size_t addr = 0;
    };

    /** Rebuild instructions from @p at and pass each to @p fn, up to
     *  the end, or up to the next loop head when @p toHead. */
    template <bool toHead, class Fn>
    Cursor walk(Cursor at, Fn &&fn) const;

    /**
     * A straight-line run of the program: it starts at pc 0, at the
     * loop head or after a branch, and ends at a branch, a Halt or an
     * instruction whose template nextPc is the loop head, so its path
     * is fixed and every instruction but the last has its template's
     * nextPc.
     */
    struct Run
    {
        uint32_t length = 0;    ///< instructions
        uint32_t memOps = 0;    ///< addresses it takes from the trace
        uint32_t firstStep = 0; ///< its steps in RunTable::steps
        uint32_t steps = 0;
        /** Per class, its instructions with an inert outcome step. */
        std::array<uint64_t, isa::num_op_classes> inert{};
    };

    /** An instruction of a run whose outcome step is not inert. */
    struct Step
    {
        uint32_t pos; ///< its position in the run
        uint32_t mem; ///< its address's index within the run
    };

    /** The runs of one replay's scheduler, each built the first time
     *  the walk reaches its start pc. */
    struct RunTable
    {
        explicit RunTable(size_t pcs) : at(pcs, -1) {}
        std::vector<int32_t> at; ///< per pc, its run's index or -1
        std::vector<Run> runs;
        std::vector<Step> steps;
    };

    /** The run of @p table that starts at @p pc on @p sched. */
    const Run &runAt(uint32_t pc, const sim::OooScheduler &sched,
                     RunTable &table) const;

    /**
     * The outcome walk: from @p at up to the next loop head or the
     * end, push each instruction's outcome on @p sched to @p outcomes,
     * the same as resolving each one in turn. A run's inert
     * instructions are counted at once and padded; only the others go
     * through resolve(). A run the trace ends inside is walked one
     * instruction at a time. Out of line, so that the full-path loop
     * of replay(cfg) keeps its placement.
     */
    [[gnu::noinline]] Cursor resolveRuns(Cursor at,
                                         sim::OooScheduler &sched,
                                         sim::OutcomeVector &outcomes,
                                         RunTable &table) const;

    friend struct RecordedTraceProbe; ///< tests drive the walks through it

    std::vector<isa::DecodedInst> program_;
    std::vector<bool> taken_;         ///< one per conditional branch
    util::PageArray<uint32_t> addrs_; ///< one per memory operation
    uint32_t loopHead_ = no_loop_head;
    uint32_t nextPc_ = 0;             ///< pc the next emit must carry
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
 * The same over an explicit @p workload: its key and IV, and its
 * plaintext as the session (its length is the session length). The
 * overload above is makeWorkload(cipher, bytes) plus this call.
 */
RecordedTrace recordKernelTrace(crypto::CipherId cipher,
                                kernels::KernelVariant variant,
                                const Workload &workload,
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
