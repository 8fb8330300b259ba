/**
 * @file
 * FNV-1a 64-bit checksum, used by procpool's pipe frames and journal
 * to detect corrupted or truncated records before anything decodes them.
 * Not cryptographic — the threat model is bit rot and buggy writers,
 * not an adversary (the ciphers in src/crypto/ handle those).
 */

#ifndef CRYPTARCH_UTIL_CHECKSUM_HH
#define CRYPTARCH_UTIL_CHECKSUM_HH

#include <cstddef>
#include <cstdint>

namespace cryptarch::util
{

constexpr uint64_t fnv1a64_init = 0xCBF29CE484222325ull;

/** Fold @p n bytes into a running FNV-1a state. */
inline uint64_t
fnv1a64(const void *data, size_t n, uint64_t state = fnv1a64_init)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; i++) {
        state ^= p[i];
        state *= 0x100000001B3ull;
    }
    return state;
}

} // namespace cryptarch::util

#endif // CRYPTARCH_UTIL_CHECKSUM_HH
