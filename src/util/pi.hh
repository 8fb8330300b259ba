/**
 * @file
 * Arbitrary-precision hexadecimal digits of pi.
 *
 * Blowfish initializes its P-array and four S-boxes with the first 8336
 * hexadecimal digits of the fractional part of pi. Rather than embedding
 * 4 KB of opaque constants, cryptarch generates them at build time
 * (src/crypto/gen_blowfish_pi.cc) with a fixed-point evaluation of
 * Machin's formula
 *
 *     pi = 16*atan(1/5) - 4*atan(1/239)
 *
 * The first generated words are cross-checked against the well-known
 * leading Blowfish constants (0x243F6A88, 0x85A308D3, ...) in the unit
 * tests, and the published Blowfish known-answer vectors transitively
 * validate the whole stream.
 */

#ifndef CRYPTARCH_UTIL_PI_HH
#define CRYPTARCH_UTIL_PI_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cryptarch::util
{

/**
 * Compute the first @p nwords 32-bit words of the fractional part of pi,
 * most significant word first. Word 0 is 0x243F6A88.
 *
 * Cost is O(nwords^2), which is large for the 1042 words Blowfish
 * needs, so the build computes them once into the table that
 * crypto::Blowfish::piWords() returns, and a unit test checks that
 * table against this function.
 */
std::vector<uint32_t> piFractionWords(size_t nwords);

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_PI_HH
