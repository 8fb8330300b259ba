/**
 * @file
 * Regenerates paper Figure 2: SSL server run-time characterization by
 * session length — fraction of cycles in public-key cipher code,
 * private-key cipher code, and everything else.
 *
 * The paper's data came from Intel measurements of a loaded web
 * server; here every component is computed (see ssl/session.hh). The
 * shape to reproduce: public-key work dominates very short sessions;
 * by ~32 KB the private-key cipher is ~half of run time and keeps
 * growing.
 */

#include <cstdio>

#include "bench/common.hh"
#include "ssl/session.hh"

int
main(int argc, char **argv)
{
    using namespace cryptarch;
    bench::rejectUnknownArgs(argc, argv, {"--rc4"});

    crypto::CipherId bulk = crypto::CipherId::TripleDES;
    if (argc > 1 && std::string(argv[1]) == "--rc4")
        bulk = crypto::CipherId::RC4;

    ssl::SessionModel model(bulk);
    const ssl::ServerRates &r = model.rates();
    const auto &info = crypto::cipherInfo(bulk);

    std::printf("Figure 2. SSL Characterization by Session Length "
                "(bulk cipher: %s).\n\n",
                info.name.c_str());
    std::printf("RSA-1024 handshake (server private op): %.2f Mcycles "
                "(client public op: %.3f Mcycles, not server work)\n"
                "bulk rate: %.1f cycles/byte steady-state; kernel "
                "prologue: %.0f cycles/invocation; setup: %.0f cycles\n\n",
                r.serverHandshakeCycles / 1e6, r.clientHandshakeCycles / 1e6,
                r.cyclesPerByte, r.prologueCycles, r.keySetupCycles);
    std::printf("%10s %12s %12s %12s %14s\n", "Session", "Public-key",
                "Private-key", "Other", "Total Mcycles");
    std::printf("%.64s\n",
                "----------------------------------------------------"
                "------------");
    for (size_t kb : {1, 2, 4, 8, 16, 32, 64, 128}) {
        auto c = model.cost(kb * 1024);
        std::printf("%8zuKB %11.1f%% %11.1f%% %11.1f%% %14.2f\n", kb,
                    100.0 * c.publicFraction(),
                    100.0 * c.privateFraction(),
                    100.0 * c.otherFraction(), c.total() / 1e6);
    }
    return 0;
}
