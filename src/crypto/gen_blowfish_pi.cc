/**
 * @file
 * Build-time generator of Blowfish's pi table.
 *
 * Writes a header holding the first Blowfish::pi_words words of pi's
 * fractional part as a constexpr array, computed by the same
 * util::piFractionWords that the unit tests check against. The build
 * runs it once (src/crypto/CMakeLists.txt), so no process computes pi
 * on a cipher's set-up path.
 *
 * Usage: gen_blowfish_pi OUTPUT_HEADER
 */

#include <cstdio>
#include <fstream>

#include "crypto/blowfish.hh"
#include "util/pi.hh"

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s OUTPUT_HEADER\n", argv[0]);
        return 2;
    }
    constexpr size_t n = cryptarch::crypto::Blowfish::pi_words;
    const auto words = cryptarch::util::piFractionWords(n);

    std::ofstream out(argv[1], std::ios::binary);
    out << "// Generated at build time by gen_blowfish_pi from\n"
           "// util::piFractionWords(" << n << "). Do not edit.\n"
           "#pragma once\n\n"
           "#include <array>\n"
           "#include <cstdint>\n\n"
           "namespace cryptarch::crypto::generated\n{\n\n"
           "inline constexpr std::array<uint32_t, " << n
        << "> blowfish_pi = {";
    for (size_t i = 0; i < n; i++) {
        char word[16];
        std::snprintf(word, sizeof word, "0x%08x,", words[i]);
        out << (i % 6 ? " " : "\n    ") << word;
    }
    out << "\n};\n\n} // namespace cryptarch::crypto::generated\n";
    out.close();
    if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", argv[0], argv[1]);
        return 1;
    }
    return 0;
}
