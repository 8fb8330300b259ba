/**
 * @file
 * DES and Triple-DES (EDE3).
 *
 * 3DES is the paper's worst-performing cipher: 48 Feistel rounds per
 * 64-bit block plus the initial/final general bit permutations that map
 * poorly onto a general-purpose ISA (the motivation for the XBOX
 * instruction). The paper configures 3DES per the SSLv3 specification:
 * EDE with three independent 56-bit keys, CBC mode.
 */

#ifndef CRYPTARCH_CRYPTO_DES_HH
#define CRYPTARCH_CRYPTO_DES_HH

#include <array>
#include <cstdint>
#include <span>

#include "crypto/cipher.hh"

namespace cryptarch::crypto
{

/**
 * Single-key DES core. Exposed (rather than kept private to 3DES)
 * because the CryptISA 3DES kernel and the unit tests validate against
 * single-DES known-answer vectors.
 */
class Des
{
  public:
    /** Expand a 64-bit key (parity bits ignored) into 16 subkeys. */
    void setKey(std::span<const uint8_t, 8> key);

    /** Encrypt a 64-bit block presented as a big-endian integer. */
    uint64_t encrypt(uint64_t block) const;

    /** Decrypt a 64-bit block presented as a big-endian integer. */
    uint64_t decrypt(uint64_t block) const;

    /** The 16 expanded 48-bit subkeys (bit 47 first E-bit). */
    const std::array<uint64_t, 16> &subkeys() const { return keys; }

    /** Initial permutation, public for kernel cross-validation. */
    static uint64_t initialPermutation(uint64_t v);
    /** Final permutation (inverse of IP). */
    static uint64_t finalPermutation(uint64_t v);
    /** The Feistel f-function: 32-bit half, 48-bit subkey. */
    static uint32_t feistel(uint32_t half, uint64_t subkey);

    /**
     * Combined S-box + P-permutation lookup tables ("SP boxes"), eight
     * 64-entry tables of 32-bit words. This is the classic software
     * formulation CryptSoft-style implementations use and what the
     * CryptISA kernel's SBOX instructions index.
     */
    static const std::array<std::array<uint32_t, 64>, 8> &spBoxes();

  private:
    friend class TripleDes;

    /**
     * The 16 rounds plus the final half swap on an IP-domain block:
     * encrypt() is FP(encryptCore(IP(x))). 3DES chains the cores
     * between one IP and one FP, since FP undoes IP exactly.
     */
    uint64_t encryptCore(uint64_t v) const;
    uint64_t decryptCore(uint64_t v) const;

    std::array<uint64_t, 16> keys{};
    /**
     * Each subkey split into its even and odd 6-bit E-chunks, placed
     * where the round finds the matching chunks of the rotated half.
     */
    std::array<std::array<uint32_t, 2>, 16> splitKeys{};
};

/** Triple-DES EDE3 block cipher (24-byte key = K1 | K2 | K3). */
class TripleDes : public BlockCipher
{
  public:
    const CipherInfo &info() const override;
    void setKey(std::span<const uint8_t> key) override;
    void encryptBlock(const uint8_t *in, uint8_t *out) const override;
    void decryptBlock(const uint8_t *in, uint8_t *out) const override;
    uint64_t setupOpEstimate() const override;

    /** The three DES cores, for kernel table extraction. */
    const Des &core(int i) const { return des[i]; }

  private:
    std::array<Des, 3> des;
};

} // namespace cryptarch::crypto

#endif // CRYPTARCH_CRYPTO_DES_HH
