#include "driver/trace.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>

#include "isa/threaded_machine.hh"
#include "util/env.hh"
#include "verify/oracle.hh"
#include "verify/stream_match.hh"

namespace cryptarch::driver
{

namespace
{

std::atomic<uint64_t> functional_runs{0};

/**
 * First-session instruction-count estimates, keyed by
 * (cipher, variant, direction) — decrypt kernels of the same cipher
 * can differ in dynamic length (extra chaining loads), so direction
 * is part of the key. A kernel's dynamic length is linear in its
 * session bytes, so one observation sizes every later recording's
 * reserve() and the packed columns never regrow mid-record.
 */
std::mutex estimate_mutex;
std::map<std::tuple<int, int, int>, double> insts_per_byte;

ExecBackendSelection
initialBackendSelection()
{
    // util/env.hh: unrecognized values keep the safe default and warn
    // once, naming the accepted spellings.
    return static_cast<ExecBackendSelection>(util::envChoice(
        "CRYPTARCH_EXEC_BACKEND",
        {{"auto", static_cast<int>(ExecBackendSelection::Auto)},
         {"interpreter",
          static_cast<int>(ExecBackendSelection::Interpreter)},
         {"threaded", static_cast<int>(ExecBackendSelection::Threaded)}},
        static_cast<int>(ExecBackendSelection::Auto)));
}

std::atomic<ExecBackendSelection> backend_selection{
    initialBackendSelection()};

std::atomic<uint64_t> gate_checks{0};
std::atomic<uint64_t> gate_fallbacks{0};
std::atomic<uint64_t> threaded_recordings{0};

/**
 * Sticky per-kernel adoption verdicts. A kernel that ever failed the
 * differential gate records with the interpreter for the rest of the
 * process — a wrong-but-fast backend must not get a second chance to
 * contaminate figures.
 */
std::mutex gate_mutex;
std::map<std::tuple<int, int, int>, bool> gate_passed;

/**
 * Capture for the gate: packed stream WITH result values. Advertises
 * the packed fast path so a gated threaded run exercises exactly the
 * row-append machinery that steady-state recordings use.
 */
struct RefTraceSink : isa::TraceSink
{
    isa::PackedTrace trace;

    void
    emit(const isa::DynInst &inst) override
    {
        trace.append(inst, /*keepResult=*/true);
    }

    isa::PackedTrace *
    packedSink(bool &keepResults) override
    {
        keepResults = true;
        return &trace;
    }
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

/**
 * The one replay loop. Templated on the sink so replay(cfg) feeds the
 * concrete scheduler directly: each packed decode lands in a
 * register-resident temporary for exactly one emit.
 */
template <class Sink>
void
feed(const isa::PackedTrace &packed, Sink &sink)
{
    for (auto r = packed.reader(); !r.done();) {
        const isa::DynInst d = r.next();
        sink.emit(d);
    }
}

} // namespace

ExecBackendSelection
execBackendSelection()
{
    return backend_selection.load(std::memory_order_relaxed);
}

void
setExecBackendSelection(ExecBackendSelection sel)
{
    backend_selection.store(sel, std::memory_order_relaxed);
}

uint64_t
backendGateChecks()
{
    return gate_checks.load(std::memory_order_relaxed);
}

uint64_t
backendGateFallbacks()
{
    return gate_fallbacks.load(std::memory_order_relaxed);
}

uint64_t
threadedRecordings()
{
    return threaded_recordings.load(std::memory_order_relaxed);
}

void
resetExecBackendGate()
{
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_passed.clear();
}

void
RecordedTrace::replay(isa::TraceSink &sink) const
{
    feed(packed_, sink);
}

sim::SimStats
RecordedTrace::replay(const sim::MachineConfig &cfg) const
{
    sim::OooScheduler sched(cfg);
    feed(packed_, sched);
    return sched.finish();
}

RecordedTrace
recordKernelTrace(crypto::CipherId cipher, kernels::KernelVariant variant,
                  size_t bytes, kernels::KernelDirection direction,
                  RecordTiming *timing)
{
    const auto t_setup = std::chrono::steady_clock::now();
    Workload w = makeWorkload(cipher, bytes);
    // Decrypt kernels consume the reference ciphertext of the standard
    // plaintext, so the oracle below checks round-trip recovery.
    std::vector<uint8_t> input =
        direction == kernels::KernelDirection::Encrypt
            ? w.plaintext
            : verify::referenceProcess(cipher, w.key, w.iv, w.plaintext,
                                       kernels::KernelDirection::Encrypt);
    auto build = kernels::buildKernel(cipher, variant, w.key, w.iv, bytes,
                                      direction);
    const std::vector<uint8_t> image = kernels::toWordImage(cipher, input);

    const auto key = std::make_tuple(static_cast<int>(cipher),
                                     static_cast<int>(variant),
                                     static_cast<int>(direction));
    size_t reserve_insts = 0;
    {
        std::lock_guard<std::mutex> lock(estimate_mutex);
        auto it = insts_per_byte.find(key);
        if (it != insts_per_byte.end())
            reserve_insts = static_cast<size_t>(it->second * bytes) + 64;
    }

    const ExecBackendSelection sel =
        backend_selection.load(std::memory_order_relaxed);
    std::optional<bool> verdict; // unset: this kernel is ungated so far
    if (sel != ExecBackendSelection::Interpreter) {
        std::lock_guard<std::mutex> lock(gate_mutex);
        auto it = gate_passed.find(key);
        if (it != gate_passed.end())
            verdict = it->second;
    }

    RecordedTrace trace;
    if (reserve_insts)
        trace.reserveInsts(reserve_insts);

    // Workload synthesis + kernel build are backend-independent setup;
    // recordSeconds is only the producing run, timed below per path.
    const double setup_seconds = secondsSince(t_setup);
    double record_seconds = 0;
    double decode_seconds = 0;
    double gate_seconds = 0;
    bool used_threaded = false;
    // Whichever backend produced the adopted trace; the oracle reads
    // the output buffer from it.
    std::unique_ptr<isa::ExecBackend> ran;

    if (sel == ExecBackendSelection::Interpreter
        || (verdict && !*verdict)) {
        auto m = std::make_unique<isa::Machine>();
        build.install(*m, image);
        const auto t_run = std::chrono::steady_clock::now();
        m->run(build.program, &trace, 1ull << 32);
        record_seconds += secondsSince(t_run);
        ran = std::move(m);
    } else if (verdict && *verdict) {
        // Steady state: this kernel already proved stream identity.
        auto tm = std::make_unique<isa::ThreadedMachine>();
        build.install(*tm, image);
        const auto t_decode = std::chrono::steady_clock::now();
        tm->prepare(build.program);
        decode_seconds = secondsSince(t_decode);
        const auto t_run = std::chrono::steady_clock::now();
        tm->run(build.program, &trace, 1ull << 32);
        record_seconds += secondsSince(t_run);
        used_threaded = true;
        ran = std::move(tm);
    } else {
        // First threaded use of this kernel: record the interpreter
        // reference (results kept), run the threaded backend into its
        // own packed capture — through the same row fast path steady
        // state uses — then compare the two streams field for field,
        // results included. The comparison forwards the matching
        // stream into the returned trace, so the run that proves
        // identity is the run whose stream gets adopted. A trap
        // anywhere in the threaded run, a field divergence, or a
        // length difference falls back to the reference stream and
        // pins the kernel to the interpreter. An interpreter trap
        // propagates to the caller exactly as an interpreter-only
        // recording would.
        gate_checks.fetch_add(1, std::memory_order_relaxed);

        auto m = std::make_unique<isa::Machine>();
        build.install(*m, image);
        RefTraceSink ref;
        if (reserve_insts)
            ref.trace.reserve(reserve_insts);
        const auto t_gate = std::chrono::steady_clock::now();
        m->run(build.program, &ref, 1ull << 32);
        gate_seconds = secondsSince(t_gate);

        auto tm = std::make_unique<isa::ThreadedMachine>();
        build.install(*tm, image);
        const auto t_decode = std::chrono::steady_clock::now();
        tm->prepare(build.program);
        decode_seconds = secondsSince(t_decode);

        RefTraceSink cand;
        if (reserve_insts)
            cand.trace.reserve(reserve_insts);
        bool ok = true;
        const auto t_run = std::chrono::steady_clock::now();
        try {
            tm->run(build.program, &cand, 1ull << 32);
        } catch (const isa::Trap &) {
            ok = false;
        }
        record_seconds += secondsSince(t_run);

        const auto t_compare = std::chrono::steady_clock::now();
        if (ok) {
            verify::StreamMatchSink matcher(ref.trace, &trace);
            for (auto r = cand.trace.reader(); !r.done();)
                matcher.emit(r.next());
            ok = matcher.complete();
        }

        {
            std::lock_guard<std::mutex> lock(gate_mutex);
            gate_passed[key] = ok;
        }
        if (ok) {
            used_threaded = true;
            ran = std::move(tm);
        } else {
            gate_fallbacks.fetch_add(1, std::memory_order_relaxed);
            // Rebuild the returned trace from the reference stream:
            // byte-identical to an interpreter-only recording.
            trace = RecordedTrace();
            if (reserve_insts)
                trace.reserveInsts(reserve_insts);
            for (auto r = ref.trace.reader(); !r.done();)
                trace.emit(r.next());
            ran = std::move(m);
        }
        gate_seconds += secondsSince(t_compare);
    }

    functional_runs.fetch_add(1, std::memory_order_relaxed);
    if (used_threaded)
        threaded_recordings.fetch_add(1, std::memory_order_relaxed);

    const auto t_verify = std::chrono::steady_clock::now();
    verify::verifyKernelOutput(build, *ran, w.key, w.iv, input, direction);
    const double verify_seconds = secondsSince(t_verify);

    if (bytes > 0) {
        std::lock_guard<std::mutex> lock(estimate_mutex);
        insts_per_byte[key] =
            static_cast<double>(trace.instructions()) / bytes;
    }

    if (timing) {
        timing->setupSeconds = setup_seconds;
        timing->recordSeconds = record_seconds;
        timing->decodeSeconds = decode_seconds;
        timing->gateSeconds = gate_seconds;
        timing->verifySeconds = verify_seconds;
    }
    return trace;
}

uint64_t
functionalRuns()
{
    return functional_runs.load(std::memory_order_relaxed);
}

} // namespace cryptarch::driver
