/** @file Unit tests for the multiprecision integer substrate. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "util/bigint.hh"
#include "util/xorshift.hh"

namespace
{

using cryptarch::util::BigInt;
using cryptarch::util::Montgomery;
using cryptarch::util::Xorshift64;

TEST(BigInt, HexRoundtrip)
{
    const std::string hex = "123456789abcdef0fedcba9876543210";
    EXPECT_EQ(BigInt::fromHex(hex).toHex(), hex);
    EXPECT_EQ(BigInt(0).toHex(), "0");
    EXPECT_EQ(BigInt(0x1234).toHex(), "1234");
}

TEST(BigInt, CompareAndBits)
{
    BigInt a = BigInt::fromHex("ffffffffffffffff");
    BigInt b = BigInt::fromHex("10000000000000000");
    EXPECT_LT(a, b);
    EXPECT_EQ(a.bitLength(), 64u);
    EXPECT_EQ(b.bitLength(), 65u);
    EXPECT_TRUE(b.bit(64));
    EXPECT_FALSE(b.bit(63));
    EXPECT_EQ(BigInt(0).bitLength(), 0u);
}

TEST(BigInt, AddSubIdentity)
{
    Xorshift64 rng(42);
    for (int i = 0; i < 50; i++) {
        BigInt a = BigInt::randomBits(200, rng);
        BigInt b = BigInt::randomBits(180, rng);
        BigInt sum = BigInt::add(a, b);
        EXPECT_EQ(BigInt::sub(sum, b), a);
        EXPECT_EQ(BigInt::sub(sum, a), b);
    }
}

TEST(BigInt, MulAgainstSmall)
{
    EXPECT_EQ(BigInt::mul(BigInt(0xFFFFFFFFull), BigInt(0xFFFFFFFFull))
                  .toHex(),
              "fffffffe00000001");
    EXPECT_EQ(BigInt::mul(BigInt(0), BigInt(12345)).toHex(), "0");
}

TEST(BigInt, MulCommutesAndDistributes)
{
    Xorshift64 rng(7);
    for (int i = 0; i < 20; i++) {
        BigInt a = BigInt::randomBits(300, rng);
        BigInt b = BigInt::randomBits(150, rng);
        BigInt c = BigInt::randomBits(220, rng);
        EXPECT_EQ(BigInt::mul(a, b), BigInt::mul(b, a));
        EXPECT_EQ(BigInt::mul(a, BigInt::add(b, c)),
                  BigInt::add(BigInt::mul(a, b), BigInt::mul(a, c)));
    }
}

TEST(BigInt, Shifts)
{
    BigInt a = BigInt::fromHex("deadbeef");
    EXPECT_EQ(BigInt::shl(a, 4).toHex(), "deadbeef0");
    EXPECT_EQ(BigInt::shr(BigInt::shl(a, 100), 100), a);
    EXPECT_EQ(BigInt::shr(a, 32).toHex(), "0");
}

TEST(BigInt, DivModBasic)
{
    auto dm = BigInt::divmod(BigInt(100), BigInt(7));
    EXPECT_EQ(dm.quot.low64(), 14u);
    EXPECT_EQ(dm.rem.low64(), 2u);
    EXPECT_THROW(BigInt::divmod(BigInt(1), BigInt(0)), std::domain_error);
}

TEST(BigInt, DivModReconstruction)
{
    Xorshift64 rng(99);
    for (int i = 0; i < 30; i++) {
        BigInt a = BigInt::randomBits(400, rng);
        BigInt b = BigInt::randomBits(150, rng);
        auto dm = BigInt::divmod(a, b);
        EXPECT_LT(dm.rem, b);
        EXPECT_EQ(BigInt::add(BigInt::mul(dm.quot, b), dm.rem), a);
    }
}

/** Build a value from little-endian 32-bit limbs. */
BigInt
fromLimbs(const std::vector<uint32_t> &limbs)
{
    std::string hex = "0";
    for (size_t i = limbs.size(); i-- > 0;) {
        char buf[9];
        std::snprintf(buf, sizeof buf, "%08x", limbs[i]);
        hex += buf;
    }
    return BigInt::fromHex(hex);
}

/**
 * Binary long division, one dividend bit at a time: the reference the
 * word-wise BigInt::divmod must agree with on every input.
 */
BigInt::DivMod
bitSerialDivMod(const BigInt &a, const BigInt &b)
{
    BigInt::DivMod out;
    for (unsigned i = a.bitLength(); i-- > 0;) {
        out.rem = BigInt::shl(out.rem, 1);
        if (a.bit(i))
            out.rem = BigInt::add(out.rem, BigInt(1));
        out.quot = BigInt::shl(out.quot, 1);
        if (out.rem >= b) {
            out.rem = BigInt::sub(out.rem, b);
            out.quot = BigInt::add(out.quot, BigInt(1));
        }
    }
    return out;
}

void
expectDivModMatches(const BigInt &a, const BigInt &b)
{
    auto got = BigInt::divmod(a, b);
    auto want = bitSerialDivMod(a, b);
    EXPECT_EQ(got.quot, want.quot) << a.toHex() << " / " << b.toHex();
    EXPECT_EQ(got.rem, want.rem) << a.toHex() << " % " << b.toHex();
}

TEST(BigInt, DivModMatchesBitSerialReference)
{
    // Limbs biased toward the values that reach Algorithm D's corner
    // cases: all-ones and all-zero limbs make qhat overestimate.
    Xorshift64 rng(2025);
    auto limb = [&]() -> uint32_t {
        static constexpr uint32_t edges[] = {0, 1, 0x7fffffff, 0x80000000,
                                             0xffffffff};
        uint64_t r = rng.next();
        return (r & 3) == 0 ? edges[(r >> 8) % 5]
                            : static_cast<uint32_t>(r >> 32);
    };
    auto value = [&](size_t n, uint32_t top) {
        std::vector<uint32_t> limbs(n);
        for (auto &l : limbs)
            l = limb();
        limbs.back() = top;
        return fromLimbs(limbs);
    };
    auto nonzero = [&]() {
        uint32_t l = limb();
        return l ? l : 1u;
    };

    for (int i = 0; i < 400; i++) {
        size_t na = 1 + rng.next() % 12, nb = 1 + rng.next() % na;
        BigInt a = value(na, nonzero());
        // One-limb divisors take the single 64/32 pass.
        expectDivModMatches(a, BigInt(nonzero()));
        // Random lengths, equal lengths, and the two normalization
        // extremes: top limb 0x80000000 (shift 0) and 1 (shift 31).
        expectDivModMatches(a, value(nb, nonzero()));
        expectDivModMatches(a, value(na, nonzero()));
        expectDivModMatches(a, value(nb, 0x80000000));
        expectDivModMatches(a, value(nb, 1));
        // Exact multiples leave a zero remainder.
        BigInt b = value(nb, nonzero());
        expectDivModMatches(BigInt::mul(a, b), b);
    }
    // Dividend shorter than, or equal to, the divisor.
    expectDivModMatches(BigInt(5), fromLimbs({0, 1}));
    expectDivModMatches(fromLimbs({7, 9}), fromLimbs({7, 9}));
    expectDivModMatches(BigInt(0), BigInt(3));
    // Hacker's Delight's divmnu test vector that needs the add-back
    // step: qhat is one too large after the two-limb correction.
    expectDivModMatches(fromLimbs({0, 0, 0x80000000, 0x7fffffff}),
                        fromLimbs({1, 0, 0x80000000}));
    expectDivModMatches(fromLimbs({3, 0, 0x80000000}),
                        fromLimbs({1, 0, 0x20000000}));
}

TEST(BigInt, ModExpSmallNumbers)
{
    // 3^10 mod 1000 = 59049 mod 1000 = 49
    EXPECT_EQ(BigInt::modExp(BigInt(3), BigInt(10), BigInt(1000)).low64(),
              49u);
    // Fermat: a^(p-1) = 1 mod p for prime p = 65537
    EXPECT_EQ(
        BigInt::modExp(BigInt(12345), BigInt(65536), BigInt(65537)).low64(),
        1u);
}

TEST(BigInt, ModExpMatchesNaive)
{
    Xorshift64 rng(1234);
    for (int i = 0; i < 10; i++) {
        uint64_t base = rng.next() % 1000 + 2;
        uint64_t exp = rng.next() % 50;
        uint64_t mod = (rng.next() % 100000) | 1; // odd -> Montgomery path
        uint64_t expect = 1;
        for (uint64_t k = 0; k < exp; k++)
            expect = expect * base % mod;
        EXPECT_EQ(
            BigInt::modExp(BigInt(base), BigInt(exp), BigInt(mod)).low64(),
            expect)
            << base << "^" << exp << " mod " << mod;
    }
}

TEST(BigInt, MontgomeryMatchesDivideReduction)
{
    Xorshift64 rng(555);
    for (int i = 0; i < 10; i++) {
        BigInt m = BigInt::randomBits(256, rng);
        if (!m.isOdd())
            m = BigInt::add(m, BigInt(1));
        BigInt a = BigInt::mod(BigInt::randomBits(256, rng), m);
        BigInt b = BigInt::mod(BigInt::randomBits(256, rng), m);
        Montgomery ctx(m);
        BigInt via_redc = ctx.fromDomain(
            ctx.mulRedc(ctx.toDomain(a), ctx.toDomain(b)));
        BigInt via_div = BigInt::mod(BigInt::mul(a, b), m);
        EXPECT_EQ(via_redc, via_div);
    }
}

TEST(BigInt, ModInverse)
{
    Xorshift64 rng(777);
    BigInt m = BigInt::fromHex("10001"); // prime 65537
    for (int i = 0; i < 20; i++) {
        BigInt a = BigInt::mod(BigInt::randomBits(64, rng), m);
        if (a.isZero())
            continue;
        BigInt inv = BigInt::modInverse(a, m);
        EXPECT_EQ(BigInt::mod(BigInt::mul(a, inv), m), BigInt(1));
    }
    // Non-invertible case: gcd(6, 12) != 1.
    EXPECT_TRUE(BigInt::modInverse(BigInt(6), BigInt(12)).isZero());
}

TEST(BigInt, MulOpsCounterAdvances)
{
    BigInt::resetMulOps();
    uint64_t before = BigInt::mulOps();
    (void)BigInt::mul(BigInt::fromHex("ffffffffffffffffffffffffffffffff"),
                      BigInt::fromHex("ffffffffffffffffffffffffffffffff"));
    EXPECT_GT(BigInt::mulOps(), before);
}

} // namespace
