/**
 * @file
 * Verification-layer tests: the reference oracle round-trips and
 * rejects corrupted kernel output with full context, and the
 * fault-injection harness classifies deterministically.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/cipher.hh"
#include "isa/machine.hh"
#include "kernels/kernel.hh"
#include "util/xorshift.hh"
#include "verify/faults.hh"
#include "verify/oracle.hh"

namespace
{

using namespace cryptarch;
using kernels::KernelDirection;
using kernels::KernelVariant;
using verify::FaultOutcome;
using verify::FaultSite;

/** The standard deterministic session material (mirrors the driver). */
struct Session
{
    std::vector<uint8_t> key, iv, plaintext;

    explicit Session(crypto::CipherId id, size_t bytes)
    {
        const auto &info = crypto::cipherInfo(id);
        util::Xorshift64 rng(0xBE7CB + static_cast<uint64_t>(id));
        key = rng.bytes(info.keyBits / 8);
        iv = rng.bytes(info.isStream ? 0 : info.blockBytes);
        plaintext = rng.bytes(bytes);
    }
};

TEST(Oracle, ReferenceProcessRoundTripsBlockCipher)
{
    Session s(crypto::CipherId::Rijndael, 256);
    auto ct = verify::referenceProcess(crypto::CipherId::Rijndael, s.key,
                                       s.iv, s.plaintext,
                                       KernelDirection::Encrypt);
    EXPECT_NE(ct, s.plaintext);
    auto rt = verify::referenceProcess(crypto::CipherId::Rijndael, s.key,
                                       s.iv, ct,
                                       KernelDirection::Decrypt);
    EXPECT_EQ(rt, s.plaintext);
}

TEST(Oracle, ReferenceProcessRc4IsAnInvolution)
{
    Session s(crypto::CipherId::RC4, 256);
    auto ct = verify::referenceProcess(crypto::CipherId::RC4, s.key, s.iv,
                                       s.plaintext,
                                       KernelDirection::Encrypt);
    EXPECT_NE(ct, s.plaintext);
    // XOR keystream: processing again in either direction recovers.
    auto rt = verify::referenceProcess(crypto::CipherId::RC4, s.key, s.iv,
                                       ct, KernelDirection::Decrypt);
    EXPECT_EQ(rt, s.plaintext);
}

TEST(Oracle, VerifyErrorCarriesContext)
{
    verify::VerifyError e("rc4-opt", 17, 0xAB, 0xCD);
    EXPECT_EQ(e.kernel(), "rc4-opt");
    EXPECT_EQ(e.offset(), 17u);
    EXPECT_EQ(e.expected(), 0xAB);
    EXPECT_EQ(e.actual(), 0xCD);
    EXPECT_NE(std::string(e.what()).find("rc4-opt"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("17"), std::string::npos);
}

TEST(Oracle, AcceptsCleanRunRejectsCorruptedOutput)
{
    const auto id = crypto::CipherId::RC4;
    Session s(id, 128);
    auto build = kernels::buildKernel(id, KernelVariant::Optimized, s.key,
                                      s.iv, s.plaintext.size());
    isa::Machine m;
    build.install(m, kernels::toWordImage(id, s.plaintext));
    m.run(build.program);
    EXPECT_NO_THROW(verify::verifyKernelOutput(build, m, s.key, s.iv,
                                               s.plaintext));

    // Flip one bit of the output buffer: the oracle must name it.
    auto byte = m.readMem(build.outAddr, 1);
    m.writeMem(build.outAddr,
               {static_cast<uint8_t>(byte[0] ^ 0x01)});
    try {
        verify::verifyKernelOutput(build, m, s.key, s.iv, s.plaintext);
        FAIL() << "corrupted output accepted";
    } catch (const verify::VerifyError &e) {
        EXPECT_EQ(e.kernel(), build.name);
        EXPECT_EQ(e.offset(), 0u);
        EXPECT_EQ(static_cast<uint8_t>(e.expected() ^ e.actual()), 0x01);
    }
}

TEST(Faults, SameSeedReproducesSameClassification)
{
    const auto a = verify::injectAndClassify(
        crypto::CipherId::RC4, KernelVariant::Optimized,
        FaultSite::Register, /*seed=*/7, /*session_bytes=*/128);
    const auto b = verify::injectAndClassify(
        crypto::CipherId::RC4, KernelVariant::Optimized,
        FaultSite::Register, /*seed=*/7, /*session_bytes=*/128);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.detail, b.detail);
}

TEST(Faults, SweepTalliesEveryInjection)
{
    auto tally = verify::injectionSweep(
        crypto::CipherId::Rijndael, KernelVariant::Optimized,
        FaultSite::Memory, /*seed0=*/100, /*count=*/6,
        /*session_bytes=*/128);
    EXPECT_EQ(tally.injections, 6u);
    EXPECT_EQ(tally.detectedTrap + tally.detectedOracle + tally.masked,
              tally.injections);
}

TEST(Faults, CoverageMath)
{
    verify::FaultTally t;
    EXPECT_EQ(t.coverage(), 0.0); // no injections: defined as 0
    t.add(FaultOutcome::DetectedTrap);
    t.add(FaultOutcome::DetectedOracle);
    t.add(FaultOutcome::DetectedOracle);
    t.add(FaultOutcome::Masked);
    EXPECT_EQ(t.injections, 4u);
    EXPECT_EQ(t.masked, 1u);
    EXPECT_DOUBLE_EQ(t.coverage(), 0.75);
}

TEST(Faults, NamesAreStable)
{
    EXPECT_STREQ(verify::faultSiteName(FaultSite::Register), "register");
    EXPECT_STREQ(verify::faultSiteName(FaultSite::Memory), "memory");
    EXPECT_STREQ(verify::faultOutcomeName(FaultOutcome::DetectedTrap),
                 "trap");
    EXPECT_STREQ(verify::faultOutcomeName(FaultOutcome::Masked),
                 "masked");
}

} // namespace
