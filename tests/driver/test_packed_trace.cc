/**
 * @file
 * Round-trip fidelity of the recorded trace: a RecordedTrace keeps the
 * decoded program plus one bit per conditional branch and one address
 * per memory operation, and its replay must equal the recorded stream
 * field by field, results aside (they replay as 0). Checked for real
 * kernel traces captured from the functional Machine — every (cipher,
 * variant, direction) in the catalog — and for a synthetic stream
 * with addresses and branch outcomes the kernels never produce.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver/json.hh"
#include "driver/trace.hh"
#include "driver/workload.hh"
#include "kernels/kernel.hh"

namespace
{

using namespace cryptarch;

void
expectInstEqual(const isa::DynInst &a, const isa::DynInst &b, size_t i)
{
    EXPECT_EQ(a.seq, b.seq) << "inst " << i;
    EXPECT_EQ(a.pc, b.pc) << "inst " << i;
    EXPECT_EQ(a.op, b.op) << "inst " << i;
    EXPECT_EQ(a.cls, b.cls) << "inst " << i;
    EXPECT_EQ(a.numSrcs, b.numSrcs) << "inst " << i;
    EXPECT_EQ(a.srcs, b.srcs) << "inst " << i;
    EXPECT_EQ(a.dest, b.dest) << "inst " << i;
    EXPECT_EQ(a.isLoad, b.isLoad) << "inst " << i;
    EXPECT_EQ(a.isStore, b.isStore) << "inst " << i;
    EXPECT_EQ(a.addr, b.addr) << "inst " << i;
    EXPECT_EQ(a.size, b.size) << "inst " << i;
    EXPECT_EQ(a.addrSrc, b.addrSrc) << "inst " << i;
    EXPECT_EQ(a.branch, b.branch) << "inst " << i;
    EXPECT_EQ(a.taken, b.taken) << "inst " << i;
    EXPECT_EQ(a.nextPc, b.nextPc) << "inst " << i;
    EXPECT_EQ(a.tableId, b.tableId) << "inst " << i;
    EXPECT_EQ(a.aliased, b.aliased) << "inst " << i;
    EXPECT_EQ(a.result, b.result) << "inst " << i;
}

/** @p insts with every result zeroed: what a replay yields. */
std::vector<isa::DynInst>
withoutResults(std::vector<isa::DynInst> insts)
{
    for (auto &inst : insts)
        inst.result = 0;
    return insts;
}

/** TraceSink capturing the raw DynInst stream. */
struct VectorSink : isa::TraceSink
{
    std::vector<isa::DynInst> insts;
    void emit(const isa::DynInst &inst) override { insts.push_back(inst); }
};

/**
 * Compare two whole streams, stopping at the first divergent
 * instruction and naming its fields.
 */
void
expectStreamsEqual(const std::vector<isa::DynInst> &a,
                   const std::vector<isa::DynInst> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        if (!(a[i] == b[i])) {
            expectInstEqual(a[i], b[i], i);
            FAIL() << "streams diverge at seq " << i;
        }
    }
}

/** Record @p stream of @p program and return its replay. */
std::vector<isa::DynInst>
roundTrip(const isa::Program &program,
          const std::vector<isa::DynInst> &stream)
{
    driver::RecordedTrace trace(program);
    for (const auto &inst : stream)
        trace.emit(inst);
    EXPECT_EQ(trace.instructions(), stream.size());
    VectorSink out;
    trace.replay(out);
    return out.insts;
}

TEST(PackedTrace, RoundTripsRealKernelStream)
{
    // Capture one raw stream straight off the Machine, record it, and
    // compare the replay field by field.
    driver::Workload w = driver::makeWorkload(crypto::CipherId::Rijndael);
    auto build = kernels::buildKernel(crypto::CipherId::Rijndael,
                                      kernels::KernelVariant::Optimized,
                                      w.key, w.iv, driver::session_bytes);
    isa::Machine m;
    build.install(m, kernels::toWordImage(crypto::CipherId::Rijndael,
                                          w.plaintext));
    VectorSink raw;
    m.run(build.program, &raw, 1ull << 32);
    ASSERT_FALSE(raw.insts.empty());

    expectStreamsEqual(withoutResults(raw.insts),
                       roundTrip(build.program, raw.insts));
}

TEST(PackedTrace, DropResultModeZeroesResultsOnly)
{
    isa::Assembler a;
    a.li(0xDEADBEEF, isa::Reg{1});
    a.halt();
    const isa::Program program = a.finalize();
    isa::Machine m;
    VectorSink live;
    m.run(program, &live);
    ASSERT_EQ(live.insts.size(), 2u);
    ASSERT_EQ(live.insts[0].result, 0xDEADBEEFu);

    auto out = roundTrip(program, live.insts);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].result, 0u);
    out[0].result = live.insts[0].result;
    expectStreamsEqual(live.insts, out);
}

TEST(PackedTrace, PackedBytesBeatDynInstSeveralFold)
{
    // Only the dynamic remainder is stored: at most 2.5 bytes per
    // instruction on every optimized kernel over a 64 KB session,
    // decoded program included, against 56 per DynInst.
    for (const auto &info : crypto::cipherCatalog()) {
        auto trace = driver::recordKernelTrace(
            info.id, kernels::KernelVariant::Optimized, 64 * 1024);
        ASSERT_GT(trace.instructions(), 0u) << info.name;
        const double per_inst =
            static_cast<double>(trace.storedBytes()) / trace.instructions();
        EXPECT_LE(per_inst, 2.5) << info.name;
        EXPECT_EQ(trace.packedEquivalentBytes(), trace.storedBytes());
    }
}

/**
 * A trace's address log is its own page mapping, so copies must be
 * deep and moves must hand the mapping over: a copied, a copy-assigned
 * and a moved-to 3DES trace replay to the original's stats on 4W
 * (fast-forwarded) and DF+Res (the full path).
 */
TEST(RecordedTrace, CopiedAndMovedTracesReplayTheSame)
{
    const auto original = driver::recordKernelTrace(
        crypto::CipherId::TripleDES, kernels::KernelVariant::Optimized,
        16 * 1024);
    driver::RecordedTrace copied = original;
    driver::RecordedTrace assigned;
    assigned = copied;
    driver::RecordedTrace source = original;
    const driver::RecordedTrace moved = std::move(source);
    for (const auto &cfg : {sim::MachineConfig::fourWide(),
                            sim::MachineConfig::dfPlusResources()}) {
        const std::string want = driver::toJson(original.replay(cfg));
        EXPECT_EQ(driver::toJson(copied.replay(cfg)), want) << cfg.name;
        EXPECT_EQ(driver::toJson(assigned.replay(cfg)), want) << cfg.name;
        EXPECT_EQ(driver::toJson(moved.replay(cfg)), want) << cfg.name;
    }
    EXPECT_EQ(moved.storedBytes(), original.storedBytes());
}

/**
 * A stream the kernels never produce: every access size, addresses at
 * both ends of the 32-bit range, random branch outcomes, and runs of
 * the program back to back. It stays program-relative (each pc is the
 * previous nextPc), which is all the trace needs.
 */
TEST(RecordedTrace, RoundTripsSyntheticStream)
{
    using isa::Reg;
    isa::Assembler a;
    a.label("top");
    a.ldq(Reg{1}, Reg{2});
    a.ldl(Reg{3}, Reg{2}, 8);
    a.ldwu(Reg{4}, Reg{2}, 2);
    a.ldbu(Reg{5}, Reg{2}, 1);
    a.stq(Reg{1}, Reg{6});
    a.stl(Reg{3}, Reg{6}, 4);
    a.stw(Reg{4}, Reg{6}, 2);
    a.stb(Reg{5}, Reg{6}, 1);
    a.sbox(3, 1, Reg{7}, Reg{1}, Reg{8});
    a.beq(Reg{1}, "skip");
    a.xor_(Reg{1}, Reg{3}, Reg{9});
    a.label("skip");
    a.bne(Reg{9}, "top");
    a.br("end");
    a.addq(Reg{1}, 1, Reg{1}); // never reached
    a.label("end");
    a.halt();
    const isa::Program program = a.finalize();
    const auto decoded = isa::decode(program);

    std::mt19937_64 rng(0xBEEF);
    const uint64_t addrs[] = {0, 4, 0xFFFFFFFCull, 0xFFFFFFFFull};
    std::vector<isa::DynInst> stream;
    uint32_t pc = 0;
    for (uint64_t seq = 0; seq < 4096; seq++) {
        const isa::DecodedInst &d = decoded[pc];
        isa::DynInst inst = d.tmpl;
        inst.seq = seq;
        if (inst.isLoad || inst.isStore)
            inst.addr = (rng() & 1) ? addrs[rng() % 4]
                                    : rng() & 0xFFFFFFFFull;
        if (d.conditional && (rng() % 4)) {
            inst.taken = true;
            inst.nextPc = d.target;
        }
        inst.result = rng();
        stream.push_back(inst);
        pc = inst.nextPc; // Halt's nextPc 0 starts the program again
    }

    expectStreamsEqual(withoutResults(stream), roundTrip(program, stream));
}

TEST(RecordedTrace, RejectsAddressBeyond32Bits)
{
    isa::Assembler a;
    a.ldq(isa::Reg{1}, isa::Reg{2});
    a.halt();
    const isa::Program program = a.finalize();
    isa::DynInst load = isa::decode(program)[0].tmpl;
    load.addr = 1ull << 32;

    driver::RecordedTrace trace(program);
    EXPECT_THROW(trace.emit(load), std::out_of_range);
    load.addr = (1ull << 32) - 8;
    EXPECT_NO_THROW(trace.emit(load));
    EXPECT_EQ(trace.instructions(), 1u);
}

TEST(RecordedTrace, RejectsStreamThatLeavesItsProgram)
{
    isa::Assembler a;
    a.addq(isa::Reg{1}, 1, isa::Reg{1});
    a.addq(isa::Reg{1}, 1, isa::Reg{1});
    a.halt();
    const isa::Program program = a.finalize();
    const auto decoded = isa::decode(program);

    driver::RecordedTrace trace(program);
    EXPECT_THROW(trace.emit(decoded[1].tmpl), std::logic_error)
        << "a stream starts at pc 0";
    trace.emit(decoded[0].tmpl);
    EXPECT_THROW(trace.emit(decoded[2].tmpl), std::logic_error)
        << "pc must follow the previous nextPc";

    driver::RecordedTrace no_program;
    EXPECT_THROW(no_program.emit(decoded[0].tmpl), std::logic_error);
}

// --- the whole kernel catalog ----------------------------------------

/** Session small enough for -O0 CI yet multi-block for every cipher. */
constexpr size_t parity_bytes = 256;

struct KernelCase
{
    crypto::CipherId cipher;
    kernels::KernelVariant variant;
    kernels::KernelDirection direction;
};

std::string
caseName(const ::testing::TestParamInfo<KernelCase> &info)
{
    const auto &c = info.param;
    std::string name = "K_"; // gtest names may not start with a digit
    name += crypto::cipherInfo(c.cipher).name;
    name += '_';
    name += kernels::variantName(c.variant);
    name += c.direction == kernels::KernelDirection::Encrypt ? "_enc"
                                                             : "_dec";
    for (auto &ch : name)
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    return name;
}

std::vector<KernelCase>
allCases()
{
    using kernels::KernelDirection;
    using kernels::KernelVariant;
    std::vector<KernelCase> cases;
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

/**
 * Parity between the interpreter's live stream and the recorded trace
 * that stands in for it: every sweep replays a RecordedTrace instead
 * of re-running the interpreter, so for every kernel in the catalog
 * the stored stream must replay to exactly what the interpreter
 * emitted.
 */
class BackendParity : public ::testing::TestWithParam<KernelCase>
{
  protected:
    /**
     * Any deterministic input works for stream parity, so decrypt
     * kernels reuse the plaintext bytes as "ciphertext" (the oracle
     * tests own round trips).
     */
    void
    SetUp() override
    {
        const auto &c = GetParam();
        auto w = driver::makeWorkload(c.cipher, parity_bytes);
        build = kernels::buildKernel(c.cipher, c.variant, w.key, w.iv,
                                     parity_bytes, c.direction);
        image = kernels::toWordImage(c.cipher, w.plaintext);
    }

    kernels::KernelBuild build;
    std::vector<uint8_t> image;
};

/**
 * Results aside, the trace is lossless: the replay of every kernel's
 * stream equals the live stream field for field.
 */
TEST_P(BackendParity, StreamsFieldForFieldIdentical)
{
    isa::Machine m;
    build.install(m, image);
    VectorSink live;
    const isa::RunStats stats = m.run(build.program, &live);
    EXPECT_EQ(stats.instructions, live.insts.size());

    expectStreamsEqual(withoutResults(live.insts),
                       roundTrip(build.program, live.insts));
}

/**
 * Recording through the virtual emit path into a RecordedTrace (the
 * driver's sink, results dropped) replays the live stream with only
 * the results zeroed, and leaves the same output as the live run.
 */
TEST_P(BackendParity, VirtualEmitPathMatches)
{
    isa::Machine live_m;
    build.install(live_m, image);
    VectorSink live;
    live_m.run(build.program, &live);
    for (auto &inst : live.insts)
        inst.result = 0;

    isa::Machine rec_m;
    build.install(rec_m, image);
    driver::RecordedTrace trace(build.program);
    rec_m.run(build.program, &trace);
    VectorSink replayed;
    trace.replay(replayed);
    expectStreamsEqual(live.insts, replayed.insts);

    EXPECT_EQ(build.readOutput(live_m), build.readOutput(rec_m));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, BackendParity,
                         ::testing::ValuesIn(allCases()), caseName);

} // namespace
