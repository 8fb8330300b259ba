/** @file Tests for the SSL session cost model (Figure 2 shape). */

#include <gtest/gtest.h>

#include "crypto/cipher.hh"
#include "ssl/rsa.hh"
#include "ssl/session.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using ssl::SessionModel;
using ssl::SessionModelParams;

SessionModelParams
fastParams()
{
    SessionModelParams p;
    p.rsaBits = 512; // keep test-time key generation cheap
    return p;
}

// Accounting regression: the server's public-key bill is the CRT
// private operation alone. The client's rsaPublic multiplies are
// measured in their own counter window and must never inflate the
// server column (they used to: one reset covered both sides).
TEST(SessionModel, HandshakeBillsOnlyServerWork)
{
    auto ops = ssl::measureHandshakeOps(512);
    EXPECT_GT(ops.clientMulOps, 0u);
    EXPECT_GT(ops.serverMulOps, 2 * ops.clientMulOps);

    SessionModelParams p = fastParams();
    SessionModel model(crypto::CipherId::TripleDES, p);
    EXPECT_DOUBLE_EQ(model.rates().serverHandshakeCycles,
                     static_cast<double>(ops.serverMulOps)
                         * p.cyclesPerWordMul);
    EXPECT_DOUBLE_EQ(model.rates().clientHandshakeCycles,
                     static_cast<double>(ops.clientMulOps)
                         * p.cyclesPerWordMul);
}

// Golden handshake bill at the default 1024-bit key and seed: the
// modulus generateRsaKey draws and each side's word-multiply count.
// Key generation divides but never multiplies into the bill, so a
// change to the division algorithm must leave all three unchanged.
TEST(SessionModel, HandshakeOpsGolden)
{
    util::Xorshift64 rng(0x55E55107);
    auto key = ssl::generateRsaKey(1024, rng);
    EXPECT_EQ(key.n.toHex(),
              "af53aba863768fadd3a51ab453bce2d03c0d860e49db1d72f24a5cd8"
              "239f4f5b0fbb8d40c9e6eb8a101338aea0ddd4642092e98c99bde02f"
              "0a236ecb74ba801e94bad7c23f3cadcfbc2de6c629209be6408707ef"
              "40f0426d03abab11ae5272359513981ad7fd3d8a564ddd7c1b27cd8d"
              "42ddc59040c3f05fc8903a8dc6beab03");
    auto ops = ssl::measureHandshakeOps(1024);
    EXPECT_EQ(ops.serverMulOps, 785920u);
    EXPECT_EQ(ops.clientMulOps, 45056u);
}

// Accounting regression: the reported cycles/byte is the marginal
// slope between two probes, so it cannot depend on which probe sizes
// were used — the old single-probe rate folded the one-time kernel
// prologue into the rate and shrank as the probe grew.
TEST(SessionModel, BulkRateIsProbeSizeInvariant)
{
    SessionModelParams a = fastParams(); // default 2048/4096 probes
    SessionModelParams b = fastParams();
    b.probeBytesLo = 4096;
    b.probeBytesHi = 8192;
    SessionModel ma(crypto::CipherId::TripleDES, a);
    SessionModel mb(crypto::CipherId::TripleDES, b);
    EXPECT_NEAR(mb.rates().cyclesPerByte / ma.rates().cyclesPerByte, 1.0,
                0.01);
    EXPECT_GT(ma.rates().prologueCycles, 0.0);
    // The prologue is one-time work, a fraction of a 2 KB probe.
    EXPECT_LT(ma.rates().prologueCycles,
              ma.rates().cyclesPerByte * 2048);
}

// Golden cycle fractions for the deterministic 512-bit/3DES model.
// The bands are ±0.03 absolute: wide enough for timing-model tuning,
// tight enough to catch an accounting regression (re-billing the
// client's public op to the server moves the 4 KB public fraction by
// ~+0.02; folding the prologue back into the rate moves the private
// fraction at every length).
TEST(SessionModel, GoldenCycleFractions)
{
    SessionModel model(crypto::CipherId::TripleDES, fastParams());
    auto c4 = model.cost(4096);
    EXPECT_NEAR(c4.publicFraction(), 0.210, 0.03);
    EXPECT_NEAR(c4.privateFraction(), 0.343, 0.03);
    EXPECT_NEAR(c4.otherFraction(), 0.447, 0.03);
    auto c32 = model.cost(32768);
    EXPECT_NEAR(c32.publicFraction(), 0.061, 0.03);
    EXPECT_NEAR(c32.privateFraction(), 0.780, 0.03);
    EXPECT_NEAR(c32.otherFraction(), 0.158, 0.03);
}

TEST(SessionModel, FractionsSumToOne)
{
    SessionModel model(crypto::CipherId::TripleDES, fastParams());
    for (size_t bytes : {1024u, 4096u, 32768u}) {
        auto c = model.cost(bytes);
        EXPECT_NEAR(c.publicFraction() + c.privateFraction()
                        + c.otherFraction(),
                    1.0, 1e-9);
        EXPECT_GT(c.publicKeyCycles, 0.0);
        EXPECT_GT(c.privateKeyCycles, 0.0);
        EXPECT_GT(c.otherCycles, 0.0);
    }
}

TEST(SessionModel, PublicKeyDominatesShortSessions)
{
    // Figure 2: for very short sessions the handshake is the story.
    SessionModel model(crypto::CipherId::TripleDES, fastParams());
    auto c = model.cost(256);
    EXPECT_GT(c.publicFraction(), c.privateFraction());
}

TEST(SessionModel, PrivateKeyShareGrowsWithLength)
{
    SessionModel model(crypto::CipherId::TripleDES, fastParams());
    double prev = 0.0;
    for (size_t bytes = 1024; bytes <= 128 * 1024; bytes *= 2) {
        double frac = model.cost(bytes).privateFraction();
        EXPECT_GT(frac, prev) << bytes;
        prev = frac;
    }
    // By long sessions the symmetric cipher dominates the handshake.
    EXPECT_GT(model.cost(128 * 1024).privateFraction(), 0.4);
}

TEST(SessionModel, PublicShareShrinksWithLength)
{
    SessionModel model(crypto::CipherId::TripleDES, fastParams());
    double prev = 1.0;
    for (size_t bytes = 1024; bytes <= 128 * 1024; bytes *= 2) {
        double frac = model.cost(bytes).publicFraction();
        EXPECT_LT(frac, prev) << bytes;
        prev = frac;
    }
}

TEST(SessionModel, FasterCipherLowersPrivateShare)
{
    SessionModel des(crypto::CipherId::TripleDES, fastParams());
    SessionModel rc4(crypto::CipherId::RC4, fastParams());
    EXPECT_LT(rc4.rates().cyclesPerByte, des.rates().cyclesPerByte);
    EXPECT_LT(rc4.cost(32768).privateFraction(),
              des.cost(32768).privateFraction());
}

// The one rate derivation, on hand-built probes whose slope, intercept
// and IPC are exact in binary floating point.
TEST(ProbeRates, ExactSlopeInterceptAndSetup)
{
    sim::SimStats lo, hi;
    lo.cycles = 12000;
    lo.instructions = 24000;
    hi.cycles = 20000;
    hi.instructions = 50000; // IPC 2.5
    hi.model = "4W";
    ssl::HandshakeOps ops;
    ops.clientMulOps = 100;
    ops.serverMulOps = 1000;
    SessionModelParams p;
    p.cyclesPerWordMul = 2.5;
    p.requestOverheadCycles = 123e3;
    p.perByteOverheadCycles = 7.0;

    const auto id = crypto::CipherId::Blowfish;
    const auto r = ssl::probeRates(id, lo, 1024, hi, 2048, ops, p);
    EXPECT_EQ(r.cipher, id);
    EXPECT_EQ(r.model, "4W");
    EXPECT_EQ(r.cyclesPerByte, 8000.0 / 1024);
    EXPECT_EQ(r.prologueCycles, 4000.0);
    EXPECT_EQ(r.keySetupCycles,
              static_cast<double>(
                  crypto::makeBlockCipher(id)->setupOpEstimate())
                  / 2.5);
    EXPECT_EQ(r.serverHandshakeCycles, 2500.0);
    EXPECT_EQ(r.clientHandshakeCycles, 250.0);
    EXPECT_EQ(r.requestOverheadCycles, 123e3);
    EXPECT_EQ(r.perByteOverheadCycles, 7.0);
}

// An empty probe has IPC 0; the setup estimate then divides by 1.
TEST(ProbeRates, ZeroIpcDividesByOne)
{
    const auto id = crypto::CipherId::RC4;
    const double insts = static_cast<double>(
        crypto::makeStreamCipher(id)->setupOpEstimate());
    EXPECT_EQ(ssl::keySetupCycles(id, 0.0), insts);
    EXPECT_EQ(ssl::keySetupCycles(id, 2.0), insts / 2);
}

} // namespace
