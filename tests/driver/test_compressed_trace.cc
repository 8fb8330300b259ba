/**
 * @file
 * Loop-aware trace compression: detection, refusal paths, and exact
 * expansion.
 *
 * Two suites, by design:
 *   CompressedTrace   isa-level unit tests on synthetic streams.
 *   CompressedReplay  driver-level properties — which kernels compress
 *                     and which refuse, and that compression can never
 *                     change a replayed stream or a simulated figure.
 * The `compressed-replay` ctest label (tests/CMakeLists.txt) runs
 * both, and CI additionally diffs a full tab02 grid with compression
 * forced on against forced off.
 */

#include <gtest/gtest.h>

#include <string>

#include "driver/trace.hh"
#include "isa/compressed_trace.hh"
#include "isa/packed_trace.hh"
#include "verify/expand_check.hh"

namespace
{

using namespace cryptarch;
using isa::CompressedTrace;
using isa::CompressOutcome;
using isa::PackedTrace;

/** Re-packs an expanded stream (results kept). */
struct RepackSink
{
    PackedTrace trace;
    void emit(const isa::DynInst &d) { trace.append(d); }
};

isa::DynInst
plainInst(uint64_t seq, uint32_t pc)
{
    isa::DynInst d;
    d.seq = seq;
    d.pc = pc;
    d.nextPc = pc + 1;
    return d;
}

/**
 * Synthetic kernel shape: 3 setup instructions, then @p iters
 * iterations of [affine load; store; backward branch], then one
 * trailing instruction. With @p looseStore the store's address walks a
 * data-dependent (non-affine) pattern — the RC4-swap shape the
 * compressor must refuse; with @p sboxLoad the load becomes an SBOX
 * lookup with a data-dependent address, which must still compress via
 * an explicit per-iteration address table.
 */
PackedTrace
makeLoopTrace(uint64_t iters, bool looseStore = false,
              bool sboxLoad = false)
{
    PackedTrace t;
    uint64_t seq = 0;
    for (uint32_t pc = 0; pc < 3; pc++)
        t.append(plainInst(seq++, pc));
    for (uint64_t it = 0; it < iters; it++) {
        isa::DynInst ld = plainInst(seq++, 3);
        ld.isLoad = true;
        ld.size = 4;
        if (sboxLoad) {
            ld.op = isa::Opcode::Sbox;
            ld.addr = 0x1000 + ((it * 2654435761u) & 0xFF) * 4;
        } else {
            ld.addr = 0x1000 + 8 * it;
        }
        t.append(ld);

        isa::DynInst st = plainInst(seq++, 4);
        st.isStore = true;
        st.size = 4;
        st.addr = looseStore ? 0x2000 + ((it * 2654435761u) & 0xFF) * 4
                             : 0x2000;
        t.append(st);

        isa::DynInst br = plainInst(seq++, 5);
        br.branch = true;
        br.taken = it + 1 < iters;
        br.nextPc = br.taken ? 3 : 6;
        t.append(br);
    }
    t.append(plainInst(seq++, 6));
    return t;
}

// ---------------------------------------------------------------------------
// CompressedTrace: synthetic streams

TEST(CompressedTrace, SyntheticLoopCompressesAndExpandsExactly)
{
    auto packed = makeLoopTrace(12);
    CompressedTrace c;
    ASSERT_EQ(CompressedTrace::compress(packed, c),
              CompressOutcome::Accepted);
    // The prefix absorbs the setup and the first iteration, so 11 of
    // the 12 iterations are stored as deltas over a 3-slot body.
    EXPECT_EQ(c.bodyLength(), 3u);
    EXPECT_EQ(c.iterations(), 11u);
    EXPECT_EQ(c.instructions(), packed.size());
    std::string why;
    EXPECT_TRUE(verify::verifyExpansion(packed, c, &why)) << why;
    EXPECT_LT(c.storedBytes(), packed.packedBytes());
}

TEST(CompressedTrace, LooseStoreAddressesRefuse)
{
    auto packed = makeLoopTrace(12, /*looseStore=*/true);
    CompressedTrace c;
    EXPECT_EQ(CompressedTrace::compress(packed, c),
              CompressOutcome::LooseAddresses);
    EXPECT_TRUE(c.empty());
}

TEST(CompressedTrace, SboxAddressesCompressViaExplicitTable)
{
    // The same data-dependent address walk that refuses on a plain
    // store is the expected shape for an SBOX lookup — the compressor
    // keeps those as one u32 per iteration.
    auto packed = makeLoopTrace(12, /*looseStore=*/false,
                                /*sboxLoad=*/true);
    CompressedTrace c;
    ASSERT_EQ(CompressedTrace::compress(packed, c),
              CompressOutcome::Accepted);
    std::string why;
    EXPECT_TRUE(verify::verifyExpansion(packed, c, &why)) << why;
}

TEST(CompressedTrace, TooFewIterationsRefuse)
{
    auto packed = makeLoopTrace(6);
    CompressedTrace c;
    EXPECT_EQ(CompressedTrace::compress(packed, c),
              CompressOutcome::NoLoop);
}

TEST(CompressedTrace, StraightLineStreamRefuses)
{
    PackedTrace t;
    for (uint64_t i = 0; i < 64; i++)
        t.append(plainInst(i, static_cast<uint32_t>(i)));
    CompressedTrace c;
    EXPECT_EQ(CompressedTrace::compress(t, c), CompressOutcome::NoLoop);
}

TEST(CompressedTrace, ExpandedSeqIsGloballyRenumbered)
{
    auto packed = makeLoopTrace(16);
    CompressedTrace c;
    ASSERT_EQ(CompressedTrace::compress(packed, c),
              CompressOutcome::Accepted);
    struct SeqSink
    {
        uint64_t next = 0;
        bool ordered = true;
        void
        emit(const isa::DynInst &d)
        {
            ordered = ordered && d.seq == next;
            next++;
        }
    } sink;
    c.expandInto(sink);
    EXPECT_TRUE(sink.ordered);
    EXPECT_EQ(sink.next, packed.size());
}

// ---------------------------------------------------------------------------
// CompressedReplay: driver-level policy and kernel properties

/** Restores the process-wide compression mode after each test. */
class CompressedReplay : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        driver::setTraceCompression(driver::TraceCompression::Auto);
    }
};

TEST_F(CompressedReplay, Rc4SwapStoresRefuseCompression)
{
    // RC4's inner loop swaps S[i] and S[j] through plain stores at
    // data-dependent addresses: exactly the stream the compressor must
    // refuse, falling back to full packed storage with no change.
    driver::setTraceCompression(driver::TraceCompression::On);
    auto trace = driver::recordKernelTrace(crypto::CipherId::RC4,
                                           kernels::KernelVariant::Optimized);
    EXPECT_FALSE(trace.isCompressed());
    EXPECT_EQ(trace.compressOutcome(), CompressOutcome::LooseAddresses);
    EXPECT_EQ(trace.storedBytes(), trace.packedEquivalentBytes());
}

TEST_F(CompressedReplay, ShortSessionRefusesCompression)
{
    // One block => the loop-close branch never repeats: setup-only
    // shapes stay packed.
    driver::setTraceCompression(driver::TraceCompression::On);
    auto trace = driver::recordKernelTrace(
        crypto::CipherId::Rijndael, kernels::KernelVariant::Optimized, 16);
    EXPECT_FALSE(trace.isCompressed());
    EXPECT_EQ(trace.compressOutcome(), CompressOutcome::NoLoop);
}

TEST_F(CompressedReplay, OffModeNeverAttempts)
{
    driver::setTraceCompression(driver::TraceCompression::Off);
    auto trace = driver::recordKernelTrace(
        crypto::CipherId::Rijndael, kernels::KernelVariant::Optimized, 512);
    EXPECT_FALSE(trace.isCompressed());
    EXPECT_EQ(trace.compressOutcome(), CompressOutcome::NotAttempted);
}

TEST_F(CompressedReplay, BlockCipherCompressesManyFold)
{
    driver::setTraceCompression(driver::TraceCompression::Auto);
    auto trace = driver::recordKernelTrace(crypto::CipherId::Rijndael,
                                           kernels::KernelVariant::Optimized);
    ASSERT_TRUE(trace.isCompressed());
    EXPECT_EQ(trace.compressOutcome(), CompressOutcome::Accepted);
    // The acceptance bar is >= 5x on block ciphers; the steady-state
    // body of a full session should clear it comfortably.
    EXPECT_GE(trace.packedEquivalentBytes(),
              5 * trace.storedBytes())
        << "stored " << trace.storedBytes() << " vs packed "
        << trace.packedEquivalentBytes();
}

TEST_F(CompressedReplay, CompressionCannotChangeSimulatedFigures)
{
    driver::setTraceCompression(driver::TraceCompression::Off);
    auto plain = driver::recordKernelTrace(crypto::CipherId::Rijndael,
                                           kernels::KernelVariant::Optimized,
                                           1024);
    driver::setTraceCompression(driver::TraceCompression::On);
    auto packed = driver::recordKernelTrace(crypto::CipherId::Rijndael,
                                            kernels::KernelVariant::Optimized,
                                            1024);
    ASSERT_TRUE(packed.isCompressed());
    // Identical streams...
    EXPECT_TRUE(plain.toPacked() == packed.toPacked());
    // ...and identical stats out of a real timing model.
    auto cfg = sim::MachineConfig::fourWidePlus();
    auto a = plain.replay(cfg);
    auto b = packed.replay(cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.sboxAccesses, b.sboxAccesses);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
}

TEST_F(CompressedReplay, EveryCatalogKernelExpandsByteIdentically)
{
    // The tentpole property: for every (cipher, variant), whatever the
    // loop detector decides, an adopted compressed stream must expand
    // to the exact packed stream. Short sessions keep the sweep fast
    // while still giving block ciphers dozens of steady iterations.
    driver::setTraceCompression(driver::TraceCompression::Off);
    const kernels::KernelVariant variants[] = {
        kernels::KernelVariant::BaselineNoRot,
        kernels::KernelVariant::BaselineRot,
        kernels::KernelVariant::Optimized,
        kernels::KernelVariant::OptimizedGrp,
        kernels::KernelVariant::OptimizedFused,
    };
    for (auto id : driver::allCiphers()) {
        for (auto variant : variants) {
            SCOPED_TRACE(crypto::cipherInfo(id).name + "/"
                         + kernels::variantName(variant));
            auto trace = driver::recordKernelTrace(id, variant, 512);
            const PackedTrace packed = trace.toPacked();
            CompressedTrace c;
            const auto outcome = CompressedTrace::compress(packed, c);
            if (outcome != CompressOutcome::Accepted)
                continue; // refusal == packed storage: trivially exact
            std::string why;
            EXPECT_TRUE(verify::verifyExpansion(packed, c, &why)) << why;
            // Re-encoding the expanded stream reproduces the packed
            // encoding exactly.
            RepackSink reencoded;
            c.expandInto(reencoded);
            EXPECT_TRUE(reencoded.trace == packed);
        }
    }
}

TEST_F(CompressedReplay, RecordTimingSplitsPhases)
{
    driver::RecordTiming timing;
    auto trace = driver::recordKernelTrace(
        crypto::CipherId::Rijndael, kernels::KernelVariant::Optimized, 512,
        kernels::KernelDirection::Encrypt, &timing);
    (void)trace;
    EXPECT_GT(timing.recordSeconds, 0.0);
    EXPECT_GE(timing.verifySeconds, 0.0);
    EXPECT_GE(timing.compressSeconds, 0.0);
}

} // namespace
