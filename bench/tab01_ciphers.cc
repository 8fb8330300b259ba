/**
 * @file
 * Regenerates paper Table 1: the analyzed private-key symmetric
 * ciphers and their configurations.
 */

#include <cstdio>

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace cryptarch;
    bench::rejectUnknownArgs(argc, argv);

    std::printf("Table 1. Private Key Symmetric Ciphers Analyzed.\n\n");
    std::printf("%-10s %5s %5s %6s  %-14s %s\n", "Cipher", "Key",
                "Blk", "Rnds/", "Author", "Example");
    std::printf("%-10s %5s %5s %6s  %-14s %s\n", "", "Size", "Size",
                "Blk", "", "Application");
    std::printf("%.76s\n",
                "----------------------------------------------------"
                "------------------------");
    for (const auto &info : crypto::cipherCatalog()) {
        std::printf("%-10s %5u %5u %6u  %-14s %s\n", info.name.c_str(),
                    info.keyBits, info.blockBytes * 8, info.rounds,
                    info.author.c_str(), info.application.c_str());
    }
    std::printf("\n(Block size in bits; RC4 is a stream cipher "
                "processing 8-bit units.)\n");
    return 0;
}
