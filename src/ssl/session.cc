#include "ssl/session.hh"

#include <stdexcept>

#include "driver/trace.hh"
#include "util/xorshift.hh"

namespace cryptarch::ssl
{

using util::BigInt;
using util::Xorshift64;

HandshakeOps
measureHandshakeOps(unsigned rsaBits, uint64_t seed)
{
    Xorshift64 rng(seed);
    RsaKey key = generateRsaKey(rsaBits, rng);
    BigInt premaster =
        BigInt::mod(BigInt::randomBits(rsaBits - 2, rng), key.n);

    HandshakeOps ops;
    // Separate resets: the client's wrap and the server's unwrap each
    // own their counter window, so neither side's multiplies can leak
    // into the other's bill.
    BigInt::resetMulOps();
    BigInt wrapped = rsaPublic(premaster, key); // client side
    ops.clientMulOps = BigInt::mulOps();
    BigInt::resetMulOps();
    (void)rsaPrivate(wrapped, key); // server side
    ops.serverMulOps = BigInt::mulOps();
    return ops;
}

double
keySetupCycles(crypto::CipherId cipher, double ipc)
{
    const uint64_t insts = crypto::cipherInfo(cipher).isStream
        ? crypto::makeStreamCipher(cipher)->setupOpEstimate()
        : crypto::makeBlockCipher(cipher)->setupOpEstimate();
    return static_cast<double>(insts) / (ipc > 0 ? ipc : 1.0);
}

ServerRates
probeRates(crypto::CipherId cipher, const sim::SimStats &lo,
           size_t loBytes, const sim::SimStats &hi, size_t hiBytes,
           const HandshakeOps &ops, const SessionModelParams &params)
{
    ServerRates r;
    r.cipher = cipher;
    r.model = hi.model;
    r.serverHandshakeCycles =
        static_cast<double>(ops.serverMulOps) * params.cyclesPerWordMul;
    r.clientHandshakeCycles =
        static_cast<double>(ops.clientMulOps) * params.cyclesPerWordMul;
    // The marginal slope is the steady-state rate and the intercept
    // the one-time prologue, so neither contaminates the other.
    r.cyclesPerByte = (static_cast<double>(hi.cycles)
                       - static_cast<double>(lo.cycles))
        / static_cast<double>(hiBytes - loBytes);
    r.prologueCycles = static_cast<double>(lo.cycles)
        - r.cyclesPerByte * static_cast<double>(loBytes);
    r.keySetupCycles = keySetupCycles(cipher, hi.ipc());
    r.requestOverheadCycles = params.requestOverheadCycles;
    r.perByteOverheadCycles = params.perByteOverheadCycles;
    return r;
}

SessionModel::SessionModel(crypto::CipherId cipher, SessionModelParams p)
{
    // --- bulk cost: time the cipher kernel at two probe lengths ---
    const auto &info = crypto::cipherInfo(cipher);
    if (p.probeBytesLo >= p.probeBytesHi
        || p.probeBytesLo % info.blockBytes
        || p.probeBytesHi % info.blockBytes)
        throw std::invalid_argument(
            "SessionModel: probe sizes must be increasing multiples of "
            "the cipher block size");

    Xorshift64 rng(0xB0B5CA1E);
    driver::Workload w;
    w.key = rng.bytes(info.keyBits / 8);
    w.iv = rng.bytes(info.isStream ? 0 : info.blockBytes);

    auto probe = [&](size_t probe_bytes) {
        w.plaintext = rng.bytes(probe_bytes);
        return driver::recordKernelTrace(
                   cipher, kernels::KernelVariant::BaselineRot, w)
            .replay(p.model);
    };
    const sim::SimStats lo = probe(p.probeBytesLo);
    const sim::SimStats hi = probe(p.probeBytesHi);
    rates_ = probeRates(cipher, lo, p.probeBytesLo, hi, p.probeBytesHi,
                        measureHandshakeOps(p.rsaBits), p);
}

SessionCost
SessionModel::cost(size_t bytes) const
{
    SessionCost c;
    c.publicKeyCycles = rates_.serverHandshakeCycles;
    c.privateKeyCycles = rates_.keySetupCycles + rates_.prologueCycles
        + rates_.cyclesPerByte * static_cast<double>(bytes);
    c.otherCycles = rates_.requestOverheadCycles
        + rates_.perByteOverheadCycles * static_cast<double>(bytes);
    return c;
}

} // namespace cryptarch::ssl
