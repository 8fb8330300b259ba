/**
 * @file
 * Round-trip fidelity of the packed trace encoding:
 * decode(encode(stream)) must equal the original stream field by
 * field, results aside (they decode as 0), both for real kernel traces
 * captured from the functional Machine — every (cipher, variant,
 * direction) in the catalog — and for adversarial synthetic streams
 * exercising every escape path (wide addresses, nextPc exceptions,
 * zero/nonzero results, every access size).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <random>
#include <string>
#include <vector>

#include "driver/trace.hh"
#include "isa/packed_trace.hh"
#include "driver/workload.hh"
#include "kernels/kernel.hh"

namespace
{

using namespace cryptarch;
using isa::PackedTrace;

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

/** @p insts with every result zeroed: what a packed decode yields. */
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

TEST(PackedTrace, RoundTripsRealKernelStream)
{
    // Capture one raw stream straight off the Machine, pack it, and
    // compare the decode field by field.
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

    PackedTrace packed;
    packed.reserve(raw.insts.size());
    for (const auto &inst : raw.insts)
        packed.append(inst);
    ASSERT_EQ(packed.size(), raw.insts.size());

    const auto expected = withoutResults(raw.insts);
    auto r = packed.reader();
    for (size_t i = 0; i < expected.size(); i++) {
        ASSERT_FALSE(r.done());
        expectInstEqual(expected[i], r.next(), i);
    }
    EXPECT_TRUE(r.done());
}

TEST(PackedTrace, RoundTripsSyntheticEscapePaths)
{
    std::mt19937_64 rng(0xBEEF);
    const uint8_t sizes[] = {0, 1, 2, 4, 8};
    std::vector<isa::DynInst> stream;
    for (size_t i = 0; i < 4096; i++) {
        isa::DynInst d;
        d.seq = i;
        d.pc = static_cast<uint32_t>(rng() & 0xFFFF);
        d.op = static_cast<isa::Opcode>(rng() % 8);
        d.cls = static_cast<isa::OpClass>(rng() % isa::num_op_classes);
        d.numSrcs = rng() % 4;
        d.srcs = {static_cast<uint8_t>(rng() & 63),
                  static_cast<uint8_t>(rng() & 63),
                  static_cast<uint8_t>(rng() & 63)};
        d.dest = rng() & 63;
        d.isLoad = rng() & 1;
        d.isStore = !d.isLoad && (rng() & 1);
        switch (rng() % 3) {
        case 0:
            d.addr = 0;
            break;
        case 1:
            d.addr = rng() & 0xFFFFFFFFull; // 32-bit fast path
            break;
        case 2:
            d.addr = rng() | (1ull << 40); // wide escape
            break;
        }
        d.size = sizes[rng() % 5];
        d.addrSrc = rng() & 63;
        d.branch = rng() & 1;
        d.taken = d.branch && (rng() & 1);
        // Mostly sequential successors, sometimes an exception.
        d.nextPc = (rng() % 4) ? d.pc + 1
                               : static_cast<uint32_t>(rng() & 0xFFFF);
        d.tableId = rng() & 7;
        d.aliased = rng() & 1;
        d.result = (rng() % 3) ? rng() : 0; // zero sometimes
        stream.push_back(d);
    }

    PackedTrace packed;
    for (const auto &inst : stream)
        packed.append(inst);

    const auto expected = withoutResults(stream);
    auto r = packed.reader();
    for (size_t i = 0; i < expected.size(); i++)
        expectInstEqual(expected[i], r.next(), i);
    EXPECT_TRUE(r.done());

    // Independent readers decode independently.
    auto r2 = packed.reader();
    expectInstEqual(expected[0], r2.next(), 0);
}

TEST(PackedTrace, DropResultModeZeroesResultsOnly)
{
    isa::DynInst d;
    d.seq = 0;
    d.pc = 7;
    d.result = 0xDEADBEEF;
    d.nextPc = 8;
    PackedTrace packed;
    packed.append(d);
    auto out = packed.reader().next();
    EXPECT_EQ(out.result, 0u);
    out.result = d.result;
    expectInstEqual(d, out, 0);
}

TEST(PackedTrace, PackedBytesBeatDynInstSeveralFold)
{
    // The whole point: a recorded kernel trace must be several times
    // smaller than the 56-byte-per-DynInst representation it replaced.
    auto trace = driver::recordKernelTrace(crypto::CipherId::RC4,
                                           kernels::KernelVariant::Optimized);
    ASSERT_GT(trace.instructions(), 0u);
    const size_t rawBytes = trace.instructions() * sizeof(isa::DynInst);
    EXPECT_LT(trace.storedBytes() * 3, rawBytes)
        << "stored " << trace.storedBytes() << " vs raw " << rawBytes;
}

TEST(PackedTrace, ClearEmptiesEverything)
{
    isa::DynInst d;
    PackedTrace packed;
    packed.append(d);
    EXPECT_EQ(packed.size(), 1u);
    EXPECT_GT(packed.packedBytes(), 0u);
    packed.clear();
    EXPECT_TRUE(packed.empty());
    auto r = packed.reader();
    EXPECT_TRUE(r.done());
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
 * Parity between the interpreter's live stream and the packed trace
 * that stands in for it: every sweep replays a RecordedTrace instead
 * of re-running the interpreter, so for every kernel in the catalog
 * the stored stream must decode to exactly what the interpreter
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
 * Results aside, the packed encoding is lossless: the decode of every
 * kernel's stream equals the live stream field for field.
 */
TEST_P(BackendParity, StreamsFieldForFieldIdentical)
{
    isa::Machine m;
    build.install(m, image);
    VectorSink live;
    const isa::RunStats stats = m.run(build.program, &live);
    EXPECT_EQ(stats.instructions, live.insts.size());

    PackedTrace packed;
    for (const auto &inst : live.insts)
        packed.append(inst);
    VectorSink decoded;
    for (auto r = packed.reader(); !r.done();)
        decoded.emit(r.next());
    expectStreamsEqual(withoutResults(live.insts), decoded.insts);
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
    driver::RecordedTrace trace;
    rec_m.run(build.program, &trace);
    VectorSink replayed;
    trace.replay(replayed);
    expectStreamsEqual(live.insts, replayed.insts);

    EXPECT_EQ(build.readOutput(live_m), build.readOutput(rec_m));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, BackendParity,
                         ::testing::ValuesIn(allCases()), caseName);

} // namespace
