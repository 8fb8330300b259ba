/** @file Known-answer and property tests for DES / 3DES. */

#include <gtest/gtest.h>

#include "crypto/cbc.hh"
#include "crypto/des.hh"
#include "util/checksum.hh"
#include "util/hex.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch::crypto;
using cryptarch::util::fromHex;
using cryptarch::util::toHex;
using cryptarch::util::Xorshift64;

// Test-local copies of the FIPS 46 tables (bit 1 is the MSB), so the
// table-driven reference is checked against the standard, not itself.
constexpr int fips_ip[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
};

constexpr int fips_e[48] = {
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
};

constexpr int fips_p[32] = {
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
};

constexpr uint8_t fips_s[8][4][16] = {
    {{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7},
     {0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8},
     {4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0},
     {15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13}},
    {{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10},
     {3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5},
     {0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15},
     {13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9}},
    {{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8},
     {13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1},
     {13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7},
     {1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12}},
    {{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15},
     {13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9},
     {10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4},
     {3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14}},
    {{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9},
     {14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6},
     {4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14},
     {11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3}},
    {{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11},
     {10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8},
     {9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6},
     {4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13}},
    {{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1},
     {13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6},
     {1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2},
     {6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12}},
    {{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7},
     {1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2},
     {7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8},
     {2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11}},
};

/** FIPS bit @p n (1-based, MSB first) of a @p width-bit value. */
uint64_t
fipsBit(uint64_t v, int n, int width)
{
    return (v >> (width - n)) & 1;
}

/** The f-function evaluated bit by bit: E, key XOR, S, then P. */
uint32_t
bitSerialFeistel(uint32_t half, uint64_t subkey)
{
    uint64_t e = 0;
    for (int i = 0; i < 48; i++)
        e = (e << 1) | fipsBit(half, fips_e[i], 32);
    e ^= subkey;
    uint32_t s = 0;
    for (int box = 0; box < 8; box++) {
        uint32_t chunk = static_cast<uint32_t>(e >> (42 - 6 * box)) & 0x3F;
        uint32_t row = ((chunk >> 4) & 2) | (chunk & 1);
        uint32_t col = (chunk >> 1) & 0xF;
        s = (s << 4) | fips_s[box][row][col];
    }
    uint32_t p = 0;
    for (int i = 0; i < 32; i++)
        p = (p << 1) | static_cast<uint32_t>(fipsBit(s, fips_p[i], 32));
    return p;
}

uint64_t
desEncryptHex(const std::string &key_hex, uint64_t pt)
{
    Des des;
    auto key = fromHex(key_hex);
    des.setKey(std::span<const uint8_t, 8>(key.data(), 8));
    return des.encrypt(pt);
}

// Classic worked example (Stallings / FIPS walkthrough).
TEST(Des, KnownAnswerClassic)
{
    EXPECT_EQ(desEncryptHex("133457799BBCDFF1", 0x0123456789ABCDEFull),
              0x85E813540F0AB405ull);
}

// NBS validation pair exercising IP and the E expansion.
TEST(Des, KnownAnswerNbs)
{
    EXPECT_EQ(desEncryptHex("0101010101010101", 0x95F8A5E5DD31D900ull),
              0x8000000000000000ull);
}

TEST(Des, DecryptInvertsEncrypt)
{
    Des des;
    auto key = fromHex("0123456789abcdef");
    des.setKey(std::span<const uint8_t, 8>(key.data(), 8));
    Xorshift64 rng(1);
    for (int i = 0; i < 100; i++) {
        uint64_t pt = rng.next();
        EXPECT_EQ(des.decrypt(des.encrypt(pt)), pt);
    }
}

// DES complement property: E_~k(~p) == ~E_k(p).
TEST(Des, ComplementProperty)
{
    auto key = fromHex("133457799BBCDFF1");
    auto ckey = key;
    for (auto &b : ckey)
        b = static_cast<uint8_t>(~b);
    Des des, cdes;
    des.setKey(std::span<const uint8_t, 8>(key.data(), 8));
    cdes.setKey(std::span<const uint8_t, 8>(ckey.data(), 8));
    Xorshift64 rng(2);
    for (int i = 0; i < 20; i++) {
        uint64_t pt = rng.next();
        EXPECT_EQ(cdes.encrypt(~pt), ~des.encrypt(pt));
    }
}

// All-ones weak key: encryption is its own inverse.
TEST(Des, WeakKeySelfInverse)
{
    Des des;
    auto key = fromHex("FFFFFFFFFFFFFFFF");
    des.setKey(std::span<const uint8_t, 8>(key.data(), 8));
    Xorshift64 rng(3);
    for (int i = 0; i < 20; i++) {
        uint64_t pt = rng.next();
        EXPECT_EQ(des.encrypt(des.encrypt(pt)), pt);
    }
}

TEST(Des, FinalPermutationInvertsInitial)
{
    Xorshift64 rng(4);
    for (int i = 0; i < 100; i++) {
        uint64_t v = rng.next();
        EXPECT_EQ(Des::finalPermutation(Des::initialPermutation(v)), v);
        EXPECT_EQ(Des::initialPermutation(Des::finalPermutation(v)), v);
    }
}

// IP moves input bit ip[i] to output bit i+1: check every single-bit
// input against the standard's table, and FP as its exact inverse.
TEST(Des, InitialPermutationMatchesFipsTable)
{
    for (int i = 0; i < 64; i++) {
        uint64_t in = 1ull << (63 - (fips_ip[i] - 1));
        uint64_t out = 1ull << (63 - i);
        EXPECT_EQ(Des::initialPermutation(in), out) << "IP bit " << i + 1;
        EXPECT_EQ(Des::finalPermutation(out), in) << "FP bit " << i + 1;
    }
}

TEST(Des, FeistelMatchesBitSerialReference)
{
    Xorshift64 rng(0xF0E1);
    for (int i = 0; i < 2000; i++) {
        uint32_t half = rng.next32();
        uint64_t subkey = rng.next() & 0xFFFFFFFFFFFFull;
        ASSERT_EQ(Des::feistel(half, subkey),
                  bitSerialFeistel(half, subkey))
            << "half " << half << " subkey " << subkey;
    }
}

// The SP-box formulation of the f function must match a direct
// bit-by-bit evaluation; spot-check its linear-in-key-XOR structure.
TEST(Des, FeistelKeyChunkSensitivity)
{
    // Changing any 6-bit key chunk must change the output for almost
    // all inputs (S-boxes have no fixed distinguishing value).
    Xorshift64 rng(5);
    for (int chunk = 0; chunk < 8; chunk++) {
        uint64_t k = rng.next() & 0xFFFFFFFFFFFFull;
        uint64_t k2 = k ^ (0x21ull << (42 - 6 * chunk));
        int diffs = 0;
        for (int i = 0; i < 50; i++) {
            uint32_t half = rng.next32();
            if (Des::feistel(half, k) != Des::feistel(half, k2))
                diffs++;
        }
        // Distinct S-box inputs collide on ~5% of values (each nibble
        // appears four times per box), so demand most-but-not-all.
        EXPECT_GT(diffs, 40) << "chunk " << chunk;
    }
}

TEST(TripleDes, DegeneratesToSingleDesWithRepeatedKey)
{
    auto key8 = fromHex("0123456789abcdef");
    std::vector<uint8_t> key24;
    for (int i = 0; i < 3; i++)
        key24.insert(key24.end(), key8.begin(), key8.end());

    TripleDes tdes;
    tdes.setKey(key24);
    Des des;
    des.setKey(std::span<const uint8_t, 8>(key8.data(), 8));

    uint8_t pt[8] = {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF};
    uint8_t ct[8];
    tdes.encryptBlock(pt, ct);
    uint64_t expect = des.encrypt(0x0123456789ABCDEFull);
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(ct[i], static_cast<uint8_t>(expect >> (56 - 8 * i)));
}

// NIST SP 800-67 EDE3 example: three distinct keys, three blocks.
TEST(TripleDes, KnownAnswerThreeKeys)
{
    TripleDes tdes;
    tdes.setKey(fromHex("0123456789ABCDEF23456789ABCDEF01456789ABCDEF0123"));
    const std::string text = "The qufck brown fox jump";
    std::vector<uint8_t> pt(text.begin(), text.end()), ct(24), back(24);
    for (int i = 0; i < 3; i++)
        tdes.encryptBlock(&pt[8 * i], &ct[8 * i]);
    EXPECT_EQ(toHex(ct),
              "a826fd8ce53b855fcce21c8112256fe668d5c05dd9b6b900");
    for (int i = 0; i < 3; i++)
        tdes.decryptBlock(&ct[8 * i], &back[8 * i]);
    EXPECT_EQ(back, pt);
}

// A 256-block CBC session through the catalog's 3DES, pinned by the
// FNV-1a digest of its ciphertext.
TEST(TripleDes, CbcChainDigestGolden)
{
    Xorshift64 rng(0xDE53);
    auto key = rng.bytes(24);
    auto iv = rng.bytes(8);
    auto pt = rng.bytes(256 * 8);
    auto cipher = makeBlockCipher(CipherId::TripleDES);
    cipher->setKey(key);
    auto ct = CbcEncryptor(*cipher, iv).encrypt(pt);
    EXPECT_EQ(cryptarch::util::fnv1a64(ct.data(), ct.size()),
              0xED9C75EC46D51FBAull);
    EXPECT_EQ(CbcDecryptor(*cipher, iv).decrypt(ct), pt);
}

TEST(TripleDes, Roundtrip)
{
    TripleDes tdes;
    auto key = fromHex("0123456789abcdef23456789abcdef01456789abcdef0123");
    tdes.setKey(key);
    Xorshift64 rng(6);
    for (int i = 0; i < 50; i++) {
        auto pt = rng.bytes(8);
        uint8_t ct[8], back[8];
        tdes.encryptBlock(pt.data(), ct);
        tdes.decryptBlock(ct, back);
        EXPECT_EQ(std::vector<uint8_t>(back, back + 8), pt);
    }
}

TEST(TripleDes, RejectsBadKeySize)
{
    TripleDes tdes;
    auto key = fromHex("0123456789abcdef");
    EXPECT_THROW(tdes.setKey(key), std::invalid_argument);
}

} // namespace
