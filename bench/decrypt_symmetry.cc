/**
 * @file
 * Verifies paper footnote 1: "Because of the symmetry between the
 * encryption and decryption algorithms, performance was comparable
 * for these codes for all experiments."
 *
 * Times the encryption and decryption kernels of every cipher on the
 * 4W machine and reports the ratio; the paper's claim holds when all
 * ratios sit near 1.0.
 *
 * Both directions run through the bench driver, one trace group per
 * (cipher, variant, direction), so each run is oracle-checked:
 * encryption against the reference ciphertext, decryption against
 * round-trip recovery of the plaintext from the reference ciphertext.
 * Stats: BENCH_decrypt_symmetry.json (decrypt rows carry
 * "direction": "decrypt").
 */

#include <cstdio>

#include "bench/common.hh"

int
main(int argc, char **argv)
{
    using namespace cryptarch;
    using namespace cryptarch::bench;
    using kernels::KernelDirection;
    using kernels::KernelVariant;

    std::vector<driver::SweepCell> cells;
    for (auto id : allCiphers())
        for (auto v : {KernelVariant::BaselineRot, KernelVariant::Optimized})
            for (auto dir : {KernelDirection::Encrypt,
                             KernelDirection::Decrypt})
                cells.push_back({id, v, sim::MachineConfig::fourWide(),
                                 session_bytes, dir});
    const auto results = driver::runCells(cells, sweepOptions(argc, argv));

    std::printf("Encryption/decryption symmetry (paper footnote 1)\n"
                "(4KB session, 4W machine, cycles).\n\n");
    std::printf("%-10s %-14s %12s %12s %8s\n", "Cipher", "Variant",
                "encrypt", "decrypt", "ratio");
    std::printf("%.60s\n",
                "----------------------------------------------------"
                "--------");
    const auto cycles = [](const driver::SweepResult &r) {
        return static_cast<double>(r.stats.cycles);
    };
    for (size_t i = 0; i < results.size(); i += 2) {
        const auto &enc = results[i];
        const auto &dec = results[i + 1];
        std::printf("%-10s %-14s %12s %12s %8s\n",
                    crypto::cipherInfo(enc.cipher).name.c_str(),
                    kernels::variantName(enc.variant).c_str(),
                    gridCell(enc.ok(), "%.0f", cycles(enc)).c_str(),
                    gridCell(dec.ok(), "%.0f", cycles(dec)).c_str(),
                    gridCell(enc.ok() && dec.ok(), "%.2f",
                             cycles(dec) / cycles(enc))
                        .c_str());
    }
    std::printf(
        "\n(Ratios below 1.0 are a real CBC effect the out-of-order\n"
        "core exploits: decryption blocks depend only on stored\n"
        "ciphertext, so they overlap, while CBC encryption is one\n"
        "serial recurrence. Ciphers already at dataflow speed —\n"
        "3DES, Mars, Rijndael — show the paper's \"comparable\"\n"
        "behavior directly.)\n");
    driver::writeBenchJson("BENCH_decrypt_symmetry.json",
                           "decrypt_symmetry", results);
    return reportFailedCells(results);
}
