/**
 * @file
 * Round-trip fidelity of the packed trace encoding:
 * decode(encode(stream)) must equal the original stream field by
 * field, both for real kernel traces captured from the functional
 * Machine and for adversarial synthetic streams exercising every
 * escape path (wide addresses, nextPc exceptions, zero/nonzero
 * results, every access size).
 */

#include <gtest/gtest.h>

#include <random>
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

/** TraceSink capturing the raw DynInst stream. */
struct VectorSink : isa::TraceSink
{
    std::vector<isa::DynInst> insts;
    void emit(const isa::DynInst &inst) override { insts.push_back(inst); }
};

TEST(PackedTrace, RoundTripsRealKernelStream)
{
    // Capture one raw stream straight off the Machine, pack it with
    // results kept, and compare the decode field by field.
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
        packed.append(inst, /*keepResult=*/true);
    ASSERT_EQ(packed.size(), raw.insts.size());

    auto r = packed.reader();
    for (size_t i = 0; i < raw.insts.size(); i++) {
        ASSERT_FALSE(r.done());
        expectInstEqual(raw.insts[i], r.next(), i);
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
        packed.append(inst, /*keepResult=*/true);

    auto r = packed.reader();
    for (size_t i = 0; i < stream.size(); i++)
        expectInstEqual(stream[i], r.next(), i);
    EXPECT_TRUE(r.done());

    // Independent readers decode independently.
    auto r2 = packed.reader();
    expectInstEqual(stream[0], r2.next(), 0);
}

TEST(PackedTrace, DropResultModeZeroesResultsOnly)
{
    isa::DynInst d;
    d.seq = 0;
    d.pc = 7;
    d.result = 0xDEADBEEF;
    d.nextPc = 8;
    PackedTrace packed;
    packed.append(d, /*keepResult=*/false);
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

} // namespace
