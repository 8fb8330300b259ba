/** @file CBC mode tests across all block ciphers, plus a NIST vector. */

#include <gtest/gtest.h>

#include "crypto/cbc.hh"
#include "crypto/cipher.hh"
#include "util/hex.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch::crypto;
using cryptarch::util::fromHex;
using cryptarch::util::toHex;
using cryptarch::util::Xorshift64;

std::vector<CipherId>
blockCipherIds()
{
    std::vector<CipherId> ids;
    for (const auto &info : cipherCatalog()) {
        if (!info.isStream)
            ids.push_back(info.id);
    }
    return ids;
}

class CbcAllCiphers : public ::testing::TestWithParam<CipherId>
{};

TEST_P(CbcAllCiphers, RoundtripMultiBlock)
{
    auto cipher = makeBlockCipher(GetParam());
    const auto &info = cipher->info();
    Xorshift64 rng(101);
    cipher->setKey(rng.bytes(info.keyBits / 8));
    auto iv = rng.bytes(info.blockBytes);
    auto pt = rng.bytes(info.blockBytes * 37);

    CbcEncryptor enc(*cipher, iv);
    CbcDecryptor dec(*cipher, iv);
    auto ct = enc.encrypt(pt);
    EXPECT_NE(ct, pt);
    EXPECT_EQ(dec.decrypt(ct), pt);
}

TEST_P(CbcAllCiphers, ChainingPropagatesForward)
{
    // Flipping a bit in plaintext block 0 must change every later
    // ciphertext block.
    auto cipher = makeBlockCipher(GetParam());
    const auto &info = cipher->info();
    Xorshift64 rng(102);
    cipher->setKey(rng.bytes(info.keyBits / 8));
    auto iv = rng.bytes(info.blockBytes);
    auto pt = rng.bytes(info.blockBytes * 8);

    CbcEncryptor enc_a(*cipher, iv);
    auto ct_a = enc_a.encrypt(pt);
    pt[0] ^= 1;
    CbcEncryptor enc_b(*cipher, iv);
    auto ct_b = enc_b.encrypt(pt);

    for (size_t block = 0; block < 8; block++) {
        bool differs = false;
        for (size_t i = 0; i < info.blockBytes; i++) {
            if (ct_a[block * info.blockBytes + i]
                != ct_b[block * info.blockBytes + i]) {
                differs = true;
                break;
            }
        }
        EXPECT_TRUE(differs) << "block " << block;
    }
}

TEST_P(CbcAllCiphers, StatefulAcrossCalls)
{
    // Encrypting in two chunks must match one shot (the IV carries).
    auto cipher = makeBlockCipher(GetParam());
    const auto &info = cipher->info();
    Xorshift64 rng(103);
    cipher->setKey(rng.bytes(info.keyBits / 8));
    auto iv = rng.bytes(info.blockBytes);
    auto pt = rng.bytes(info.blockBytes * 10);

    CbcEncryptor whole(*cipher, iv);
    auto one_shot = whole.encrypt(pt);

    CbcEncryptor chunked(*cipher, iv);
    size_t split = info.blockBytes * 4;
    auto first = chunked.encrypt(
        std::span<const uint8_t>(pt.data(), split));
    auto second = chunked.encrypt(
        std::span<const uint8_t>(pt.data() + split, pt.size() - split));
    first.insert(first.end(), second.begin(), second.end());
    EXPECT_EQ(first, one_shot);
}

TEST_P(CbcAllCiphers, IdenticalBlocksEncryptDifferently)
{
    // The defining CBC property vs ECB.
    auto cipher = makeBlockCipher(GetParam());
    const auto &info = cipher->info();
    Xorshift64 rng(104);
    cipher->setKey(rng.bytes(info.keyBits / 8));
    auto iv = rng.bytes(info.blockBytes);
    std::vector<uint8_t> pt(info.blockBytes * 2, 0x42);

    CbcEncryptor enc(*cipher, iv);
    auto ct = enc.encrypt(pt);
    EXPECT_NE(std::vector<uint8_t>(ct.begin(),
                                   ct.begin() + info.blockBytes),
              std::vector<uint8_t>(ct.begin() + info.blockBytes,
                                   ct.end()));
}

INSTANTIATE_TEST_SUITE_P(
    AllBlockCiphers, CbcAllCiphers,
    ::testing::ValuesIn(blockCipherIds()),
    [](const ::testing::TestParamInfo<CipherId> &info) {
        return cipherInfo(info.param).name;
    });

// NIST SP 800-38A F.2.1: AES-128-CBC encryption, first block.
TEST(CbcKat, Sp800_38aAes128)
{
    auto cipher = makeBlockCipher(CipherId::Rijndael);
    cipher->setKey(fromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    auto iv = fromHex("000102030405060708090a0b0c0d0e0f");
    auto pt = fromHex("6bc1bee22e409f96e93d7e117393172a");
    CbcEncryptor enc(*cipher, iv);
    EXPECT_EQ(toHex(enc.encrypt(pt)),
              "7649abac8119b246cee98e9b12e9197d");
}

TEST(Cbc, RejectsBadIvSize)
{
    auto cipher = makeBlockCipher(CipherId::Blowfish);
    Xorshift64 rng(105);
    cipher->setKey(rng.bytes(16));
    auto iv = rng.bytes(4); // too small
    EXPECT_THROW(CbcEncryptor(*cipher, iv), std::invalid_argument);
}

TEST(Cbc, RejectsPartialBlocks)
{
    auto cipher = makeBlockCipher(CipherId::Blowfish);
    Xorshift64 rng(106);
    cipher->setKey(rng.bytes(16));
    auto iv = rng.bytes(8);
    CbcEncryptor enc(*cipher, iv);
    auto pt = rng.bytes(12); // not a multiple of 8
    EXPECT_THROW(enc.encrypt(pt), std::invalid_argument);
}

} // namespace
