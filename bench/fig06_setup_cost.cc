/**
 * @file
 * Regenerates paper Figure 6: key-setup cost as a fraction of total
 * session run time, against session length.
 *
 * Setup instruction counts are analytic per-cipher estimates
 * (documented beside each cipher's setupOpEstimate()); kernel cycles
 * come from the 4W model. Paper shape: 3DES and IDEA have negligible
 * setup even at 16 bytes; most ciphers drop below 10% by 4 KB;
 * Blowfish — whose setup runs the cipher 521 times, the work of
 * encrypting ~8 KB — only drops below 10% past 64 KB.
 *
 * The probes run through the bench driver; stats: BENCH_fig06.json.
 */

#include <cstdio>

#include "bench/common.hh"
#include "ssl/session.hh"

int
main(int argc, char **argv)
{
    using namespace cryptarch;
    using namespace cryptarch::bench;
    using kernels::KernelVariant;

    // One 4 KB probe per cipher, also the per-byte divisor below.
    std::vector<driver::SweepCell> cells;
    for (auto id : allCiphers())
        cells.push_back({id, KernelVariant::BaselineRot,
                         sim::MachineConfig::fourWide(), session_bytes});
    const auto results = driver::runCells(cells, sweepOptions(argc, argv));

    const size_t lengths[] = {16,   64,   256,   1024,
                              4096, 16384, 65536};

    std::printf("Figure 6. Setup Cost as a Function of Session Length\n"
                "(setup cycles as %% of total session cycles, 4W "
                "machine).\n\n");
    std::printf("%-10s", "Cipher");
    for (size_t l : lengths) {
        if (l >= 1024)
            std::printf("%7zuK", l / 1024);
        else
            std::printf("%7zuB", l);
    }
    std::printf("\n%.66s\n",
                "----------------------------------------------------"
                "--------------");

    for (const auto &r : results) {
        const auto &info = crypto::cipherInfo(r.cipher);
        const double cycles_per_byte =
            static_cast<double>(r.stats.cycles) / r.bytes;
        const double setup_cycles =
            ssl::keySetupCycles(r.cipher, r.stats.ipc());

        std::printf("%-10s", info.name.c_str());
        for (size_t l : lengths) {
            size_t bytes = std::max<size_t>(l, info.blockBytes);
            double kernel_cycles = cycles_per_byte * bytes;
            double frac = setup_cycles / (setup_cycles + kernel_cycles);
            std::printf("%8s",
                        gridCell(r.ok(), "%.1f%%", 100.0 * frac).c_str());
        }
        std::printf("\n");
    }

    // The outlier, measured instead of estimated: record the Blowfish
    // key-setup kernel itself and replay it on the 4W model. No grid
    // has a place for it, so it is recorded here.
    const auto &bf = driver::findResult(results, crypto::CipherId::Blowfish,
                                        KernelVariant::BaselineRot, "4W");
    if (bf.ok()) {
        Workload w = makeWorkload(crypto::CipherId::Blowfish);
        auto setup = kernels::buildBlowfishSetupKernel(
            KernelVariant::BaselineRot, w.key);
        isa::Machine m;
        for (const auto &[addr, bytes] : setup.memInit)
            m.writeMem(addr, bytes);
        driver::RecordedTrace trace(setup.program, setup.loopHead);
        m.run(setup.program, &trace);
        auto s = trace.replay(sim::MachineConfig::fourWide());

        double cpb = static_cast<double>(bf.stats.cycles) / bf.bytes;
        std::printf("\nBlowfish setup kernel, measured: %llu cycles "
                    "(%llu insts) —\n",
                    static_cast<unsigned long long>(s.cycles),
                    static_cast<unsigned long long>(s.instructions));
        std::printf("the work of encrypting ~%.1f KB of payload "
                    "(paper: ~8 KB); measured\nsetup share at 4 KB: "
                    "%.1f%%, crossing 10%% near %.0f KB.\n",
                    static_cast<double>(s.cycles) / cpb / 1024.0,
                    100.0 * s.cycles / (s.cycles + cpb * 4096),
                    9.0 * static_cast<double>(s.cycles) / cpb / 1024.0);
    }
    driver::writeBenchJson("BENCH_fig06.json", "fig06", results);
    return reportFailedCells(results);
}
