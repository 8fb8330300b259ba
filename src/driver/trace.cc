#include "driver/trace.hh"

#include <atomic>
#include <chrono>

#include "verify/oracle.hh"

namespace cryptarch::driver
{

namespace
{

std::atomic<uint64_t> functional_runs{0};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

} // namespace

/**
 * The one replay loop: walk the program from pc 0, start each
 * instruction from its template, and patch in the recorded remainder.
 * Templated on the sink so replay(cfg) feeds the concrete scheduler
 * directly.
 */
template <class Sink>
void
RecordedTrace::feed(Sink &sink) const
{
    size_t next_taken = 0;
    size_t next_addr = 0;
    uint32_t pc = 0;
    for (uint64_t seq = 0; seq < count_; seq++) {
        const isa::DecodedInst &d = program_[pc];
        isa::DynInst inst = d.tmpl;
        inst.seq = seq;
        if (inst.isLoad || inst.isStore)
            inst.addr = addrs_[next_addr++];
        if (d.conditional && taken_[next_taken++]) {
            inst.taken = true;
            inst.nextPc = d.target;
        }
        sink.emit(inst);
        pc = inst.nextPc;
    }
}

void
RecordedTrace::replay(isa::TraceSink &sink) const
{
    feed(sink);
}

sim::SimStats
RecordedTrace::replay(const sim::MachineConfig &cfg) const
{
    sim::OooScheduler sched(cfg);
    feed(sched);
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

    RecordedTrace trace(build.program);
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
