/**
 * @file
 * Multiprecision unsigned integer arithmetic.
 *
 * This is the substrate for the public-key half of the SSL session model
 * (Figure 2 of the paper): RSA key generation, encryption and decryption
 * built on Montgomery modular exponentiation — the same algorithm family
 * the paper cites as the dominant public-key cost [Montgomery 1985].
 *
 * The implementation deliberately counts 32x32->64 word multiplications
 * (see @ref mulOps) so the SSL model can convert public-key work into an
 * architecture-level cost instead of a hard-coded percentage.
 */

#ifndef CRYPTARCH_UTIL_BIGINT_HH
#define CRYPTARCH_UTIL_BIGINT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cryptarch::util
{

class BigInt;

/** Result pair of BigInt::divmod. */
struct BigIntDivMod;

/**
 * Arbitrary-precision unsigned integer, little-endian 32-bit limbs with
 * no leading zero limbs (zero is an empty limb vector).
 */
class BigInt
{
  public:
    BigInt() = default;
    /* implicit */ BigInt(uint64_t v);

    /** Parse a hexadecimal string (no 0x prefix, case-insensitive). */
    static BigInt fromHex(std::string_view hex);

    /** Uniform random value with exactly @p bits bits (MSB set). */
    template <typename Rng>
    static BigInt
    randomBits(unsigned bits, Rng &rng)
    {
        BigInt r;
        unsigned limbs = (bits + 31) / 32;
        r.limbs.resize(limbs);
        for (auto &l : r.limbs)
            l = static_cast<uint32_t>(rng.next() >> 32);
        unsigned top = (bits - 1) % 32;
        r.limbs.back() &= (top == 31) ? 0xFFFFFFFFu : ((2u << top) - 1);
        r.limbs.back() |= (1u << top);
        r.trim();
        return r;
    }

    std::string toHex() const;

    bool isZero() const { return limbs.empty(); }
    bool isOdd() const { return !limbs.empty() && (limbs[0] & 1); }
    /** Number of significant bits (0 for zero). */
    unsigned bitLength() const;
    /** Value of bit @p i (0 = LSB). */
    bool bit(unsigned i) const;
    /** Low 64 bits of the value. */
    uint64_t low64() const;

    /** Three-way comparison: -1, 0, +1. */
    static int compare(const BigInt &a, const BigInt &b);

    bool operator==(const BigInt &o) const { return compare(*this, o) == 0; }
    bool operator!=(const BigInt &o) const { return compare(*this, o) != 0; }
    bool operator<(const BigInt &o) const { return compare(*this, o) < 0; }
    bool operator<=(const BigInt &o) const { return compare(*this, o) <= 0; }
    bool operator>(const BigInt &o) const { return compare(*this, o) > 0; }
    bool operator>=(const BigInt &o) const { return compare(*this, o) >= 0; }

    static BigInt add(const BigInt &a, const BigInt &b);
    /** a - b; requires a >= b. */
    static BigInt sub(const BigInt &a, const BigInt &b);
    /** Schoolbook product (counts word multiplies). */
    static BigInt mul(const BigInt &a, const BigInt &b);
    /** Left shift by @p n bits. */
    static BigInt shl(const BigInt &a, unsigned n);
    /** Right shift by @p n bits. */
    static BigInt shr(const BigInt &a, unsigned n);

    /**
     * Quotient and remainder of a / b, a word at a time (Knuth's
     * Algorithm D). Counts no multiplies: @ref mulOps bills only mul()
     * and Montgomery products.
     */
    using DivMod = BigIntDivMod;
    static DivMod divmod(const BigInt &a, const BigInt &b);
    static BigInt mod(const BigInt &a, const BigInt &m);

    /**
     * Modular exponentiation base^exp mod m. Uses Montgomery REDC when
     * the modulus is odd (the normal RSA path), falling back to
     * divide-based reduction otherwise.
     */
    static BigInt modExp(const BigInt &base, const BigInt &exp,
                         const BigInt &m);

    /**
     * Modular inverse of a mod m via extended Euclid; returns zero when
     * gcd(a, m) != 1.
     */
    static BigInt modInverse(const BigInt &a, const BigInt &m);

    /**
     * Global count of 32x32->64 multiplications performed by mul/modExp
     * since process start. The SSL session model samples this around a
     * public-key operation to derive its cycle cost.
     */
    static uint64_t mulOps();
    static void resetMulOps();

  private:
    void trim();

    std::vector<uint32_t> limbs;

    friend class Montgomery;
};

struct BigIntDivMod
{
    BigInt quot, rem;
};

/**
 * Montgomery context for repeated multiplication modulo a fixed odd
 * modulus. R = 2^(32*n) where n is the modulus limb count.
 */
class Montgomery
{
  public:
    /** @p m must be odd and nonzero. */
    explicit Montgomery(const BigInt &m);

    /** Convert into the Montgomery domain: aR mod m. */
    BigInt toDomain(const BigInt &a) const;
    /** Convert out of the Montgomery domain: aR^-1 mod m. */
    BigInt fromDomain(const BigInt &a) const;
    /** Montgomery product: a*b*R^-1 mod m (both inputs in-domain). */
    BigInt mulRedc(const BigInt &a, const BigInt &b) const;
    /** Full modexp with in-domain square-and-multiply. */
    BigInt modExp(const BigInt &base, const BigInt &exp) const;

  private:
    BigInt modulus;
    BigInt r2; ///< R^2 mod m, for domain conversion.
    uint32_t nprime; ///< -m^-1 mod 2^32.
    size_t nlimbs;
};

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_BIGINT_HH
