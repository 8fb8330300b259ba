/**
 * @file
 * Differential parity tests between execution backends.
 *
 * The ExecBackend contract (isa/exec_backend.hh) says backend choice
 * is a performance decision, never a semantics decision: for the same
 * program and initial state every backend must produce field-for-field
 * identical DynInst streams, identical architectural side effects, and
 * identical traps. These tests enforce that contract between the
 * reference interpreter (isa::Machine) and the pre-decoded threaded
 * executor (isa::ThreadedMachine) over the entire kernel catalog —
 * every (cipher, variant, direction) — and over every trap cause.
 *
 * Two stream plumbing paths exist in the threaded backend: the packed
 * row fast path (sinks that expose a PackedTrace via packedSink) and
 * the generic DynInst emit path. Both are compared against the
 * interpreter, and the packed products are compared whole
 * (PackedTrace::operator==), proving the fast path's flag
 * canonicalization reproduces PackedTrace::append exactly — not just a
 * decode-equal stream.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/workload.hh"
#include "isa/exec_backend.hh"
#include "isa/machine.hh"
#include "isa/packed_trace.hh"
#include "isa/threaded_machine.hh"
#include "kernels/kernel.hh"
#include "verify/stream_match.hh"

namespace
{

using namespace cryptarch;
using namespace cryptarch::isa;
using kernels::KernelDirection;
using kernels::KernelVariant;

constexpr Reg r1{1}, r2{2}, r3{3};

/** Session small enough for -O0 CI yet multi-block for every cipher. */
constexpr size_t parity_bytes = 256;

/**
 * Reference-stream sink: packed append with results kept, reachable
 * through both plumbing paths (emit for the interpreter, the packed
 * fast path for the threaded backend). Mirrors the driver's gate sink.
 */
struct PackedKeepSink : TraceSink
{
    PackedTrace trace;

    void emit(const DynInst &d) override { trace.append(d, true); }

    PackedTrace *
    packedSink(bool &keepResults) override
    {
        keepResults = true;
        return &trace;
    }
};

/** Plain capture sink with no packed fast path (forces emit()). */
struct VectorSink : TraceSink
{
    std::vector<DynInst> trace;
    void emit(const DynInst &d) override { trace.push_back(d); }
};

struct BackendCase
{
    crypto::CipherId cipher;
    KernelVariant variant;
    KernelDirection direction;
};

std::string
caseName(const ::testing::TestParamInfo<BackendCase> &info)
{
    const auto &c = info.param;
    std::string name = "K_"; // gtest names may not start with a digit
    name += crypto::cipherInfo(c.cipher).name;
    name += '_';
    name += kernels::variantName(c.variant);
    name += c.direction == KernelDirection::Encrypt ? "_enc" : "_dec";
    for (auto &ch : name)
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return name;
}

std::vector<BackendCase>
allCases()
{
    std::vector<BackendCase> cases;
    for (const auto &info : crypto::cipherCatalog()) {
        for (auto v : {KernelVariant::BaselineNoRot,
                       KernelVariant::BaselineRot,
                       KernelVariant::Optimized,
                       KernelVariant::OptimizedGrp,
                       KernelVariant::OptimizedFused}) {
            cases.push_back({info.id, v, KernelDirection::Encrypt});
            cases.push_back({info.id, v, KernelDirection::Decrypt});
        }
    }
    return cases;
}

kernels::KernelBuild
buildCase(const BackendCase &c, std::vector<uint8_t> &image)
{
    auto w = driver::makeWorkload(c.cipher, parity_bytes);
    std::vector<uint8_t> input = w.plaintext;
    if (c.direction == KernelDirection::Decrypt) {
        // Any deterministic input works for stream parity; reuse the
        // plaintext bytes as "ciphertext" rather than dragging the
        // reference cipher in (the oracle tests own round-trips).
        input = w.plaintext;
    }
    auto build = kernels::buildKernel(c.cipher, c.variant, w.key, w.iv,
                                      parity_bytes, c.direction);
    image = kernels::toWordImage(c.cipher, input);
    return build;
}

class BackendParity : public ::testing::TestWithParam<BackendCase>
{};

/**
 * The tentpole guarantee: interpreter and threaded backend produce
 * identical streams (results included), identical run stats, identical
 * outputs — and the packed encodings are equal, so the threaded fast
 * path canonicalizes flags exactly like append().
 */
TEST_P(BackendParity, StreamsFieldForFieldIdentical)
{
    std::vector<uint8_t> image;
    auto build = buildCase(GetParam(), image);

    Machine interp;
    build.install(interp, image);
    PackedKeepSink ref;
    RunStats si = interp.run(build.program, &ref);

    ThreadedMachine threaded;
    build.install(threaded, image);
    PackedKeepSink cand;
    RunStats st = threaded.run(build.program, &cand);

    EXPECT_EQ(si.instructions, st.instructions);
    ASSERT_EQ(ref.trace.size(), cand.trace.size());

    auto ra = ref.trace.reader();
    auto rb = cand.trace.reader();
    uint64_t checked = 0;
    while (!ra.done()) {
        const DynInst a = ra.next();
        const DynInst b = rb.next();
        const auto field = verify::firstDynInstDifference(a, b);
        ASSERT_TRUE(field.empty())
            << "streams diverge at seq " << checked << " field "
            << field;
        checked++;
    }

    // Encoding identity, not just decode identity.
    EXPECT_TRUE(ref.trace == cand.trace);

    // Architectural side effects: the output image both backends leave
    // in data memory.
    EXPECT_EQ(build.readOutput(interp), build.readOutput(threaded));
}

/**
 * The threaded backend's generic emit() path (sinks without a packed
 * fast path) must match the interpreter too — the adoption gate's
 * forwarding comparator runs through it.
 */
TEST_P(BackendParity, VirtualEmitPathMatches)
{
    std::vector<uint8_t> image;
    auto build = buildCase(GetParam(), image);

    Machine interp;
    build.install(interp, image);
    VectorSink a;
    interp.run(build.program, &a);

    ThreadedMachine threaded;
    build.install(threaded, image);
    VectorSink b;
    threaded.run(build.program, &b);

    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); i++) {
        const auto field =
            verify::firstDynInstDifference(a.trace[i], b.trace[i]);
        ASSERT_TRUE(field.empty())
            << "emit streams diverge at seq " << i << " field " << field;
    }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, BackendParity,
                         ::testing::ValuesIn(allCases()), caseName);

// --- trap parity ------------------------------------------------------

/**
 * Run @p p on both backends with identical @p fuel, require both to
 * trap, and require cause/pc/seq/what() to match. Returns the
 * interpreter's trap for cause-specific assertions. Also requires the
 * partial streams retired before the trap to be identical (the
 * staging buffer must land the retired prefix even when unwinding).
 */
Trap
expectTrapParity(const Program &p, uint64_t fuel = 1ull << 20)
{
    PackedKeepSink sa, sb;
    Machine interp;
    ThreadedMachine threaded;

    auto runOne = [&](ExecBackend &m, TraceSink *sink)
        -> std::optional<Trap> {
        try {
            m.run(p, sink, fuel);
        } catch (const Trap &t) {
            return t;
        }
        return std::nullopt;
    };

    auto ta = runOne(interp, &sa);
    auto tb = runOne(threaded, &sb);
    if (!ta || !tb) {
        ADD_FAILURE() << "expected both backends to trap (interp="
                      << ta.has_value()
                      << " threaded=" << tb.has_value() << ")";
        return Trap(TrapCause::PcOverrun, "unreachable");
    }

    EXPECT_EQ(ta->cause(), tb->cause());
    EXPECT_EQ(ta->pc(), tb->pc());
    EXPECT_EQ(ta->seq(), tb->seq());
    EXPECT_EQ(ta->addr(), tb->addr());
    EXPECT_EQ(ta->accessSize(), tb->accessSize());
    EXPECT_EQ(ta->tableId(), tb->tableId());
    EXPECT_STREQ(ta->what(), tb->what());

    // Retired prefix parity: everything before the trapping inst.
    EXPECT_TRUE(sa.trace == sb.trace);
    return *ta;
}

TEST(BackendTrapParity, OobLoad)
{
    Assembler a;
    a.li(0x10'0000'0000, r1); // wide (> 2^32) and out of bounds
    a.ldq(r2, r1, 8);
    a.halt();
    Trap t = expectTrapParity(a.finalize());
    EXPECT_EQ(t.cause(), TrapCause::OobLoad);
    EXPECT_EQ(*t.seq(), 1u);
}

TEST(BackendTrapParity, OobStore)
{
    Assembler a;
    a.li(0xFFFFFF, r1);
    a.stq(r2, r1, 0);
    a.halt();
    Trap t = expectTrapParity(a.finalize());
    EXPECT_EQ(t.cause(), TrapCause::OobStore);
}

TEST(BackendTrapParity, MisalignedAccess)
{
    Assembler a;
    a.li(13, r1);
    a.ldl(r2, r1, 0);
    a.halt();
    Trap t = expectTrapParity(a.finalize());
    EXPECT_EQ(t.cause(), TrapCause::Misaligned);
}

TEST(BackendTrapParity, InvalidSboxTable)
{
    // The assembler rejects bad designators at emit time, so forge one
    // post-assembly; both backends must catch it at execution.
    Assembler a;
    a.li(0, r1);
    a.li(0, r2);
    a.sbox(0, 0, r1, r2, r3);
    a.halt();
    Program p = a.finalize();
    p.insts[2].tableId = max_sbox_tables;
    Trap t = expectTrapParity(p);
    EXPECT_EQ(t.cause(), TrapCause::InvalidSboxTable);
    EXPECT_EQ(*t.tableId(), max_sbox_tables);
}

TEST(BackendTrapParity, FuelExhausted)
{
    Assembler a;
    a.label("spin");
    a.addq(r1, 1, r1);
    a.br("spin");
    a.halt();
    // Fuel chosen to exhaust mid-loop, past several staging batches.
    Trap t = expectTrapParity(a.finalize(), 1000);
    EXPECT_EQ(t.cause(), TrapCause::FuelExhausted);
}

TEST(BackendTrapParity, PcOverrun)
{
    Assembler a;
    a.li(5, r1);
    a.addq(r1, 1, r2); // falls off the end: no halt
    Trap t = expectTrapParity(a.finalize());
    EXPECT_EQ(t.cause(), TrapCause::PcOverrun);
}

// --- targeted stream shapes -------------------------------------------

/**
 * rc == R63 ALU results are discarded by the interpreter; the threaded
 * backend routes such instructions to its emit-only handler. The
 * streams (dest, result, everything) must still match.
 */
TEST(BackendStreamShapes, DiscardedDestinationParity)
{
    Assembler a;
    a.li(7, r1);
    a.li(9, r2);
    a.addq(r1, r2, reg_zero);  // result discarded
    a.xor_(r1, r2, reg_zero);  // result discarded
    a.mulq(r1, r2, r3);        // result kept
    a.halt();
    Program p = a.finalize();

    Machine interp;
    ThreadedMachine threaded;
    PackedKeepSink sa, sb;
    interp.run(p, &sa);
    threaded.run(p, &sb);
    EXPECT_TRUE(sa.trace == sb.trace);

    auto r = sb.trace.reader();
    r.next(); r.next();
    const DynInst discarded = r.next();
    EXPECT_EQ(discarded.dest, reg_zero.n);
    EXPECT_EQ(discarded.result, 0u);
}

/**
 * A sink with a packed fast path but a non-empty trace must fall back
 * to emit(): appendRow's implicit sequence numbers only line up when
 * the run starts from a fresh trace.
 */
TEST(BackendStreamShapes, NonEmptyPackedSinkFallsBackToEmit)
{
    Assembler a;
    a.li(1, r1);
    a.halt();
    Program p = a.finalize();

    PackedKeepSink sink;
    DynInst pre;
    pre.seq = 0;
    sink.trace.append(pre, true); // pre-existing row
    ThreadedMachine threaded;
    threaded.run(p, &sink);
    // li + halt appended after the pre-existing row, via emit().
    EXPECT_EQ(sink.trace.size(), 3u);
}

} // namespace
