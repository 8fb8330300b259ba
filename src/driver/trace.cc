#include "driver/trace.hh"

#include <atomic>
#include <chrono>

#include "sim/memo.hh"
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
 * The one trace walk: from @p at, start each instruction from its
 * template and patch in the recorded remainder.
 */
template <bool toHead, class Fn>
RecordedTrace::Cursor
RecordedTrace::walk(Cursor at, Fn &&fn) const
{
    while (at.seq < count_) {
        const isa::DecodedInst &d = program_[at.pc];
        isa::DynInst inst = d.tmpl;
        inst.seq = at.seq++;
        if (inst.isLoad || inst.isStore)
            inst.addr = addrs_[at.addr++];
        if (d.conditional && taken_[at.taken++]) {
            inst.taken = true;
            inst.nextPc = d.target;
        }
        fn(inst);
        at.pc = inst.nextPc;
        if constexpr (toHead) {
            if (at.pc == loopHead_)
                break;
        }
    }
    return at;
}

const RecordedTrace::Run &
RecordedTrace::runAt(uint32_t pc, const sim::OooScheduler &sched,
                     RunTable &table) const
{
    int32_t &index = table.at[pc];
    if (index >= 0)
        return table.runs[index];
    Run run;
    run.firstStep = static_cast<uint32_t>(table.steps.size());
    for (uint32_t p = pc; p < program_.size(); p++) {
        const isa::DynInst &t = program_[p].tmpl;
        if (sched.outcomeInert(t))
            run.inert[static_cast<size_t>(t.cls)]++;
        else
            table.steps.push_back({run.length, run.memOps});
        run.length++;
        if (t.isLoad || t.isStore)
            run.memOps++;
        if (t.branch || t.op == isa::Opcode::Halt || t.nextPc == loopHead_)
            break;
    }
    run.steps = static_cast<uint32_t>(table.steps.size()) - run.firstStep;
    index = static_cast<int32_t>(table.runs.size());
    table.runs.push_back(run);
    return table.runs.back();
}

RecordedTrace::Cursor
RecordedTrace::resolveRuns(Cursor at, sim::OooScheduler &sched,
                           sim::OutcomeVector &outcomes,
                           RunTable &table) const
{
    while (at.seq < count_) {
        const Run &run = runAt(at.pc, sched, table);
        if (count_ - at.seq < run.length) {
            return walk<true>(at, [&](const isa::DynInst &inst) {
                outcomes.push(sched.resolve(inst));
            });
        }
        sched.countInert(run.inert);
        uint32_t pos = 0;
        uint32_t next = program_[at.pc + run.length - 1].tmpl.nextPc;
        for (uint32_t i = 0; i < run.steps; i++) {
            const Step step = table.steps[run.firstStep + i];
            const isa::DecodedInst &d = program_[at.pc + step.pos];
            isa::DynInst inst = d.tmpl;
            inst.seq = at.seq + step.pos;
            if (inst.isLoad || inst.isStore)
                inst.addr = addrs_[at.addr + step.mem];
            // Only a run's last instruction can be a conditional branch.
            if (d.conditional && taken_[at.taken++]) {
                inst.taken = true;
                inst.nextPc = next = d.target;
            }
            outcomes.pad(step.pos - pos);
            outcomes.push(sched.resolve(inst));
            pos = step.pos + 1;
        }
        outcomes.pad(run.length - pos);
        at.seq += run.length;
        at.addr += run.memOps;
        at.pc = next;
        if (at.pc == loopHead_)
            break;
    }
    return at;
}

void
RecordedTrace::replay(isa::TraceSink &sink) const
{
    walk<false>({}, [&](const isa::DynInst &inst) { sink.emit(inst); });
}

// Aligned, like Machine::run, so that a change elsewhere cannot move
// the replay loop's placement and with it the measured replay rate.
[[gnu::aligned(64)]] sim::SimStats
RecordedTrace::replay(const sim::MachineConfig &cfg,
                      uint64_t *fastForwarded) const
{
    sim::OooScheduler sched(cfg);
    if (fastForwarded)
        *fastForwarded = 0;
    if (loopHead_ == no_loop_head
        || !sim::IterationMemo::fastForwardable(sched)) {
        walk<false>({}, [&](const isa::DynInst &inst) { sched.emit(inst); });
        return sched.finish();
    }

    // One segment per pass: the prologue, then one block-loop
    // iteration each, the last running to the end of the trace. The
    // outcome step sees every instruction in program order through the
    // outcome walk, which resolves only the instructions whose outcome
    // step is not inert; the core sees the segments the memo cannot
    // skip.
    sim::IterationMemo memo(sched, loopHead_);
    sim::OutcomeVector outcomes;
    RunTable runs(program_.size());
    Cursor at;
    while (at.seq < count_) {
        const Cursor start = at;
        outcomes.clear();
        at = resolveRuns(at, sched, outcomes, runs);
        if (memo.skip(outcomes))
            continue;
        sim::OutcomeVector::Reader read(outcomes);
        walk<true>(start, [&](const isa::DynInst &inst) {
            sched.schedule(inst, read.next());
        });
        memo.ran(outcomes, at.seq < count_);
    }
    memo.settle();
    if (fastForwarded)
        *fastForwarded = memo.skippedInstructions();
    return sched.finish();
}

RecordedTrace
recordKernelTrace(crypto::CipherId cipher, kernels::KernelVariant variant,
                  size_t bytes, kernels::KernelDirection direction,
                  RecordTiming *timing)
{
    const auto t_workload = std::chrono::steady_clock::now();
    const Workload w = makeWorkload(cipher, bytes);
    const double workload_seconds = secondsSince(t_workload);
    RecordedTrace trace =
        recordKernelTrace(cipher, variant, w, direction, timing);
    if (timing)
        timing->setupSeconds += workload_seconds;
    return trace;
}

RecordedTrace
recordKernelTrace(crypto::CipherId cipher, kernels::KernelVariant variant,
                  const Workload &w, kernels::KernelDirection direction,
                  RecordTiming *timing)
{
    const auto t_setup = std::chrono::steady_clock::now();
    const size_t bytes = w.plaintext.size();
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

    RecordedTrace trace(build.program, build.loopHead);
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
