#include "crypto/des.hh"

#include <stdexcept>

#include "util/bitops.hh"

namespace cryptarch::crypto
{

using util::load64be;
using util::rotl32;
using util::rotr32;
using util::store64be;

namespace
{

// FIPS 46 tables. Bit numbering follows the standard: bit 1 is the most
// significant bit of the input.

constexpr int ip_table[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
};

constexpr int pc1_table[56] = {
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
};

constexpr int pc2_table[48] = {
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
};

constexpr int key_shifts[16] = {
    1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1,
};

constexpr int p_table[32] = {
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
};

constexpr uint8_t sboxes[8][64] = {
    {
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    },
    {
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    },
    {
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    },
    {
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    },
    {
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    },
    {
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    },
    {
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    },
    {
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    },
};

/**
 * Generic bit permutation with FIPS numbering: output bit i (1-based,
 * MSB first, @p out_bits wide) takes input bit table[i-1] of an
 * @p in_bits wide value.
 */
constexpr uint64_t
permuteBits(uint64_t v, const int *table, int out_bits, int in_bits)
{
    uint64_t r = 0;
    for (int i = 0; i < out_bits; i++) {
        uint64_t bit = (v >> (in_bits - table[i])) & 1;
        r |= bit << (out_bits - 1 - i);
    }
    return r;
}

/** S-box lookup: 6-bit chunk value (spec bit order) through box i. */
constexpr uint32_t
sboxLookup(int box, uint32_t chunk)
{
    uint32_t row = ((chunk >> 4) & 2) | (chunk & 1);
    uint32_t col = (chunk >> 1) & 0xF;
    return sboxes[box][row * 16 + col];
}

/** Inverse of the initial permutation, derived rather than transcribed. */
constexpr std::array<int, 64> fp_table = [] {
    std::array<int, 64> t{};
    for (int i = 0; i < 64; i++)
        t[ip_table[i] - 1] = i + 1;
    return t;
}();

using ByteTables = std::array<std::array<uint64_t, 256>, 8>;

/**
 * A 64-bit permutation as eight 256-entry tables: entry [k][b] is the
 * image of byte k (k = 0 most significant) holding b, so a block's
 * image is the OR of its eight bytes' images.
 */
constexpr ByteTables
byteTables(const int *table)
{
    ByteTables t{};
    for (int k = 0; k < 8; k++)
        for (uint64_t b = 0; b < 256; b++)
            t[k][b] = permuteBits(b << (56 - 8 * k), table, 64, 64);
    return t;
}

constexpr ByteTables ip_bytes = byteTables(ip_table);
constexpr ByteTables fp_bytes = byteTables(fp_table.data());

uint64_t
permute(const ByteTables &t, uint64_t v)
{
    uint64_t r = 0;
    for (int k = 0; k < 8; k++)
        r |= t[k][(v >> (56 - 8 * k)) & 0xFF];
    return r;
}

// SP box i maps a 6-bit E-chunk to the P-permuted contribution of
// S-box i: the 4-bit S output placed in its nibble position and run
// through P.
constexpr std::array<std::array<uint32_t, 64>, 8> sp_boxes = [] {
    std::array<std::array<uint32_t, 64>, 8> sp{};
    for (int box = 0; box < 8; box++) {
        for (uint32_t v = 0; v < 64; v++) {
            uint64_t placed = static_cast<uint64_t>(sboxLookup(box, v))
                << (28 - 4 * box);
            sp[box][v] = static_cast<uint32_t>(
                permuteBits(placed, p_table, 32, 32));
        }
    }
    return sp;
}();

using SplitKey = std::array<uint32_t, 2>;

/**
 * Split a 48-bit subkey into its 6-bit chunks: the even chunks
 * (0, 2, 4, 6) in word 0 and the odd ones in word 1, each set at bits
 * 26, 18, 10 and 2.
 */
SplitKey
splitSubkey(uint64_t subkey)
{
    SplitKey k{};
    for (int i = 0; i < 8; i++) {
        uint32_t k6 = static_cast<uint32_t>(subkey >> (42 - 6 * i)) & 0x3F;
        k[i & 1] |= k6 << (26 - 8 * (i / 2));
    }
    return k;
}

/**
 * The f-function. E expansion: chunk i is spec bits 4i..4i+5 of the
 * half, taken cyclically (bit 0 means bit 32). Rotating the half right
 * by one puts the even chunks at bits 26, 18, 10 and 2; rotating it
 * left by three puts the odd chunks there.
 */
inline uint32_t
f(uint32_t half, const SplitKey &k)
{
    uint32_t e = rotr32(half, 1) ^ k[0];
    uint32_t o = rotl32(half, 3) ^ k[1];
    return sp_boxes[0][e >> 26] ^ sp_boxes[2][(e >> 18) & 0x3F]
        ^ sp_boxes[4][(e >> 10) & 0x3F] ^ sp_boxes[6][(e >> 2) & 0x3F]
        ^ sp_boxes[1][o >> 26] ^ sp_boxes[3][(o >> 18) & 0x3F]
        ^ sp_boxes[5][(o >> 10) & 0x3F] ^ sp_boxes[7][(o >> 2) & 0x3F];
}

/**
 * Sixteen rounds on an IP-domain block, two per step so the halves
 * never swap, then the final swap. Decryption runs the keys backwards.
 */
template <bool Decrypt>
uint64_t
rounds(uint64_t v, const std::array<SplitKey, 16> &k)
{
    uint32_t l = static_cast<uint32_t>(v >> 32);
    uint32_t r = static_cast<uint32_t>(v);
    for (int i = 0; i < 16; i += 2) {
        l ^= f(r, k[Decrypt ? 15 - i : i]);
        r ^= f(l, k[Decrypt ? 14 - i : i + 1]);
    }
    return (static_cast<uint64_t>(r) << 32) | l;
}

} // namespace

uint64_t
Des::initialPermutation(uint64_t v)
{
    return permute(ip_bytes, v);
}

uint64_t
Des::finalPermutation(uint64_t v)
{
    return permute(fp_bytes, v);
}

const std::array<std::array<uint32_t, 64>, 8> &
Des::spBoxes()
{
    return sp_boxes;
}

uint32_t
Des::feistel(uint32_t half, uint64_t subkey)
{
    return f(half, splitSubkey(subkey));
}

void
Des::setKey(std::span<const uint8_t, 8> key)
{
    uint64_t k = load64be(key.data());
    uint64_t cd = permuteBits(k, pc1_table, 56, 64);
    uint32_t c = static_cast<uint32_t>(cd >> 28);
    uint32_t d = static_cast<uint32_t>(cd & 0x0FFFFFFF);
    for (int round = 0; round < 16; round++) {
        int s = key_shifts[round];
        c = ((c << s) | (c >> (28 - s))) & 0x0FFFFFFF;
        d = ((d << s) | (d >> (28 - s))) & 0x0FFFFFFF;
        uint64_t merged = (static_cast<uint64_t>(c) << 28) | d;
        keys[round] = permuteBits(merged, pc2_table, 48, 56);
        splitKeys[round] = splitSubkey(keys[round]);
    }
}

uint64_t
Des::encryptCore(uint64_t v) const
{
    return rounds<false>(v, splitKeys);
}

uint64_t
Des::decryptCore(uint64_t v) const
{
    return rounds<true>(v, splitKeys);
}

uint64_t
Des::encrypt(uint64_t block) const
{
    return finalPermutation(encryptCore(initialPermutation(block)));
}

uint64_t
Des::decrypt(uint64_t block) const
{
    return finalPermutation(decryptCore(initialPermutation(block)));
}

// ---------------------------------------------------------------------
// Triple-DES EDE3
// ---------------------------------------------------------------------

const CipherInfo &
TripleDes::info() const
{
    return cipherInfo(CipherId::TripleDES);
}

void
TripleDes::setKey(std::span<const uint8_t> key)
{
    if (key.size() != 24)
        throw std::invalid_argument("TripleDes: key must be 24 bytes");
    for (int i = 0; i < 3; i++)
        des[i].setKey(key.subspan(i * 8).first<8>());
}

void
TripleDes::encryptBlock(const uint8_t *in, uint8_t *out) const
{
    // FP after one stage and IP before the next cancel, so the three
    // cores run between a single IP and a single FP.
    uint64_t v = Des::initialPermutation(load64be(in));
    v = des[0].encryptCore(v);
    v = des[1].decryptCore(v);
    v = des[2].encryptCore(v);
    store64be(out, Des::finalPermutation(v));
}

void
TripleDes::decryptBlock(const uint8_t *in, uint8_t *out) const
{
    uint64_t v = Des::initialPermutation(load64be(in));
    v = des[2].decryptCore(v);
    v = des[1].encryptCore(v);
    v = des[0].decryptCore(v);
    store64be(out, Des::finalPermutation(v));
}

uint64_t
TripleDes::setupOpEstimate() const
{
    // Three key schedules; each runs PC1 (56 bit gathers), then 16 rounds
    // of two 28-bit rotates plus PC2 (48 bit gathers). A bit gather is
    // roughly 4 baseline instructions (shift/mask/shift/or).
    const uint64_t per_key = 56 * 4 + 16 * (2 * 4 + 48 * 4);
    return 3 * per_key;
}

} // namespace cryptarch::crypto
