/**
 * @file
 * Arbitrary-precision hexadecimal digits of pi.
 *
 * Blowfish initializes its P-array and four S-boxes with the first 8336
 * hexadecimal digits of the fractional part of pi. Rather than embedding
 * 4 KB of opaque constants, cryptarch regenerates them at cipher-setup
 * time with a fixed-point evaluation of Machin's formula
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
 * Cost is O(nwords^2); generating the 1042 words Blowfish needs takes
 * about 90 ms (the benchmark's util.pi_s on a 4-core x86 VM), so
 * callers share one cached copy (crypto::Blowfish::piWords()).
 */
std::vector<uint32_t> piFractionWords(size_t nwords);

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_PI_HH
