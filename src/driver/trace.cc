#include "driver/trace.hh"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <tuple>

#include "verify/oracle.hh"

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

    RecordedTrace trace;
    if (reserve_insts)
        trace.reserveInsts(reserve_insts);
    const double setup_seconds = secondsSince(t_setup);

    isa::Machine m;
    build.install(m, image);
    const auto t_run = std::chrono::steady_clock::now();
    m.run(build.program, &trace, 1ull << 32);
    const double record_seconds = secondsSince(t_run);
    functional_runs.fetch_add(1, std::memory_order_relaxed);

    const auto t_verify = std::chrono::steady_clock::now();
    verify::verifyKernelOutput(build, m, w.key, w.iv, input, direction);
    const double verify_seconds = secondsSince(t_verify);

    if (bytes > 0) {
        std::lock_guard<std::mutex> lock(estimate_mutex);
        insts_per_byte[key] =
            static_cast<double>(trace.instructions()) / bytes;
    }

    if (timing) {
        timing->setupSeconds = setup_seconds;
        timing->recordSeconds = record_seconds;
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
