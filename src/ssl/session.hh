/**
 * @file
 * SSL session cost model (paper Figure 2).
 *
 * A session is one public-key handshake (RSA private-key operation on
 * the server; the client's public operation is measured for reference
 * but is *not* server work) followed by bulk private-key encryption of
 * the payload, plus fixed per-request server/OS overhead. The paper's
 * Figure 2 plots the fraction of server run time in each component
 * against session length.
 *
 * All components are computed, not transcribed:
 *  - public-key cycles derive from the actual count of 32x32 word
 *    multiplies executed by the server's CRT Montgomery modexp
 *    (util::BigInt's instrumentation), scaled by a cycles-per-multiply
 *    constant; the client's rsaPublic multiplies are counted with a
 *    separate reset so they never inflate the server column;
 *  - private-key cycles come from the cipher kernel at two probe
 *    lengths, each recorded (driver::recordKernelTrace, so its output
 *    is oracle-checked) and replayed on the timing model: the
 *    marginal slope between the probes is the steady-state
 *    cycles/byte rate, and the intercept is the one-time kernel
 *    prologue (register/key loads, cold caches and predictor warmup),
 *    charged once per kernel invocation instead of being smeared into
 *    the per-byte rate;
 *  - "other" is a fixed per-request overhead plus a per-byte copy
 *    cost, the calibration documented in EXPERIMENTS.md.
 */

#ifndef CRYPTARCH_SSL_SESSION_HH
#define CRYPTARCH_SSL_SESSION_HH

#include <cstdint>

#include "crypto/cipher.hh"
#include "sim/config.hh"
#include "sim/pipeline.hh"
#include "ssl/rsa.hh"
#include "ssl/server.hh"

namespace cryptarch::ssl
{

/** Cycle breakdown of one session. */
struct SessionCost
{
    double publicKeyCycles = 0;
    double privateKeyCycles = 0;
    double otherCycles = 0;

    double
    total() const
    {
        return publicKeyCycles + privateKeyCycles + otherCycles;
    }

    double publicFraction() const { return publicKeyCycles / total(); }
    double privateFraction() const { return privateKeyCycles / total(); }
    double otherFraction() const { return otherCycles / total(); }
};

/**
 * Word-multiply counts of one full RSA handshake, measured with
 * separate counter resets so the two sides never blend: the server
 * performs the CRT private operation, the client the cheap public
 * (e = 65537) operation on the premaster secret.
 */
struct HandshakeOps
{
    uint64_t clientMulOps = 0; ///< rsaPublic (client side)
    uint64_t serverMulOps = 0; ///< rsaPrivate via CRT (server side)
};

/**
 * Generate an RSA key of @p rsaBits, run one wrap/unwrap handshake and
 * return each side's 32x32 word-multiply count. Deterministic for a
 * given (@p rsaBits, @p seed).
 */
HandshakeOps measureHandshakeOps(unsigned rsaBits,
                                 uint64_t seed = 0x55E55107);

/** Tunable constants of the cost model. */
struct SessionModelParams
{
    unsigned rsaBits = 1024;
    /** Cycles per 32x32->64 multiply in the bignum inner loop
     *  (multiply + accumulate + carry bookkeeping on the 4W core). */
    double cyclesPerWordMul = 2.5;
    /** Fixed request handling overhead (parsing, socket, scheduling). */
    double requestOverheadCycles = 500e3;
    /** Per-payload-byte server copy/checksum cost. */
    double perByteOverheadCycles = 4.0;
    /** Timing model the bulk kernel runs on. */
    sim::MachineConfig model = sim::MachineConfig::fourWide();
    /**
     * The two bulk-probe lengths. The reported cycles/byte is the
     * marginal slope between them, so it must not depend on the probe
     * sizes themselves (regression-tested); both must be multiples of
     * the cipher block size.
     */
    size_t probeBytesLo = 2048;
    size_t probeBytesHi = 4096;
};

/**
 * Key-setup cycles of @p cipher: its setupOpEstimate() instructions
 * over the kernel's measured @p ipc (the Figure 6 estimate). An IPC of
 * 0 divides by 1.
 */
double keySetupCycles(crypto::CipherId cipher, double ipc);

/**
 * Server rates from two kernel probes of @p cipher on one machine
 * model, @p lo over @p loBytes and @p hi over @p hiBytes. The marginal
 * slope between them is the steady-state cycles/byte, the intercept
 * the per-invocation prologue, and key setup is keySetupCycles at
 * @p hi's IPC. Handshake cycles are @p ops' word multiplies at
 * params.cyclesPerWordMul; the overheads come from @p params.
 */
ServerRates probeRates(crypto::CipherId cipher, const sim::SimStats &lo,
                       size_t loBytes, const sim::SimStats &hi,
                       size_t hiBytes, const HandshakeOps &ops,
                       const SessionModelParams &params);

/** Figure 2 generator for one bulk cipher. */
class SessionModel
{
  public:
    /**
     * Build the model: generates an RSA key, measures the handshake's
     * word-multiply count per side, and times @p bulk_cipher's kernel
     * at two probe lengths on the configured machine. A probe whose
     * output fails the oracle throws verify::VerifyError.
     */
    explicit SessionModel(crypto::CipherId bulk_cipher,
                          SessionModelParams params = {});

    /** Cycle breakdown for a session transferring @p bytes. */
    SessionCost cost(size_t bytes) const;

    /**
     * The measured rates: server and client handshake, key setup,
     * kernel prologue, steady-state cycles/byte and the overheads.
     */
    const ServerRates &rates() const { return rates_; }

  private:
    ServerRates rates_;
};

} // namespace cryptarch::ssl

#endif // CRYPTARCH_SSL_SESSION_HH
