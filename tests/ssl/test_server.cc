/** @file Tests for the server-at-scale SSL workload simulation. */

#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "ssl/server.hh"

namespace
{

using namespace cryptarch;
using ssl::ServerRates;
using ssl::ServerSimParams;
using ssl::ServerSimResult;

// Hand-filled rates (no simulator runs): a 3DES-like bulk cipher and a
// Blowfish-like key-agility outlier, so the tests are fast and the
// expectations explicit.
ServerRates
desLikeRates()
{
    ServerRates r;
    r.cipher = crypto::CipherId::TripleDES;
    r.model = "4W";
    r.serverHandshakeCycles = 5e6;
    r.clientHandshakeCycles = 1e5;
    r.keySetupCycles = 50e3;
    r.prologueCycles = 800;
    r.cyclesPerByte = 100;
    return r;
}

ServerRates
blowfishLikeRates()
{
    ServerRates r = desLikeRates();
    r.cipher = crypto::CipherId::Blowfish;
    r.keySetupCycles = 10e6; // the Figure 6 outlier
    r.cyclesPerByte = 60;
    return r;
}

ServerSimParams
smallParams()
{
    ServerSimParams p;
    p.sessions = 20000;
    p.loadFactors = {0.5, 0.9, 1.2};
    return p;
}

void
expectIdentical(const ServerSimResult &a, const ServerSimResult &b)
{
    EXPECT_EQ(a.sessions, b.sessions);
    EXPECT_EQ(a.servers, b.servers);
    EXPECT_EQ(a.chainDigest, b.chainDigest);
    EXPECT_EQ(a.meanServiceCycles, b.meanServiceCycles);
    EXPECT_EQ(a.meanSessionBytes, b.meanSessionBytes);
    EXPECT_EQ(a.meanRequests, b.meanRequests);
    EXPECT_EQ(a.resumedShare, b.resumedShare);
    EXPECT_EQ(a.handshakeFraction, b.handshakeFraction);
    EXPECT_EQ(a.setupFraction, b.setupFraction);
    EXPECT_EQ(a.bulkFraction, b.bulkFraction);
    EXPECT_EQ(a.otherFraction, b.otherFraction);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); i++) {
        EXPECT_EQ(a.points[i].loadFactor, b.points[i].loadFactor);
        EXPECT_EQ(a.points[i].offeredPerGcycle,
                  b.points[i].offeredPerGcycle);
        EXPECT_EQ(a.points[i].achievedPerGcycle,
                  b.points[i].achievedPerGcycle);
        EXPECT_EQ(a.points[i].utilization, b.points[i].utilization);
        EXPECT_EQ(a.points[i].p50Cycles, b.points[i].p50Cycles);
        EXPECT_EQ(a.points[i].p95Cycles, b.points[i].p95Cycles);
        EXPECT_EQ(a.points[i].p99Cycles, b.points[i].p99Cycles);
        EXPECT_EQ(a.points[i].meanCycles, b.points[i].meanCycles);
    }
}

TEST(ServerSim, DeterministicAcrossRuns)
{
    auto a = ssl::runServerSim(desLikeRates(), smallParams());
    auto b = ssl::runServerSim(desLikeRates(), smallParams());
    expectIdentical(a, b);
}

// The grid runner's determinism contract: bit-identical results for
// any worker-thread count (the acceptance criterion BENCH_server.json
// inherits).
TEST(ServerSim, DeterministicAcrossThreadCounts)
{
    std::vector<ServerRates> rates;
    for (int i = 0; i < 6; i++)
        rates.push_back(i % 2 ? blowfishLikeRates() : desLikeRates());
    auto params = smallParams();
    auto serial = ssl::runServerSims(rates, params, 1);
    auto parallel = ssl::runServerSims(rates, params, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++)
        expectIdentical(serial[i], parallel[i]);
}

// runServerSims draws each cipher's population once and composes every
// cell of that cipher from it; each cell must match its own
// runServerSim exactly. Same-cipher cells are interleaved, never
// adjacent, and the real chain ciphers run.
TEST(ServerSim, SharedPopulationMatchesPerCell)
{
    std::vector<ServerRates> rates;
    for (int set = 0; set < 4; set++) {
        for (auto id : {crypto::CipherId::TripleDES, crypto::CipherId::RC4,
                        crypto::CipherId::Blowfish}) {
            ServerRates r = desLikeRates();
            r.cipher = id;
            r.model = "set" + std::to_string(set);
            r.keySetupCycles = 20e3 * (set + 1);
            r.prologueCycles = 500 + 200 * set;
            r.cyclesPerByte = 40 + 30 * set;
            rates.push_back(r);
        }
    }
    auto params = smallParams();
    params.sessions = 5000;
    std::vector<ServerSimResult> per_cell;
    for (const auto &r : rates)
        per_cell.push_back(ssl::runServerSim(r, params));
    for (unsigned threads : {1u, 2u, 4u, 12u}) {
        auto shared = ssl::runServerSims(rates, params, threads);
        ASSERT_EQ(shared.size(), rates.size());
        for (size_t i = 0; i < rates.size(); i++) {
            SCOPED_TRACE("threads " + std::to_string(threads) + " cell "
                         + std::to_string(i));
            expectIdentical(per_cell[i], shared[i]);
        }
    }
}

// Every result field of four simulations, pinned as exact hex-floats
// recorded from the original single-loop implementation (one serial
// chain pass, a min-heap of core free times, each percentile selected
// over the whole latency buffer). The phased runner must reproduce
// them bit for bit. The 4097-session case is one session past a chain
// chunk boundary.
TEST(ServerSim, GoldenResults)
{
    struct Golden
    {
        crypto::CipherId cipher;
        ServerSimResult expected;
    };
    const Golden golden[] = {
    {crypto::CipherId::TripleDES,
     {20000, 8,
      0x1.eaadf3ba5e354p+21, 0x1.e02ca45a1cac1p+13, 0x1.0016f0068db8cp+2,
      0x1.671758e219653p-1, 0x1.7c67528d2aefcp-2, 0x1.979918ce76705p-7,
      0x1.884072c007ed3p-2, 0x1.dd36e3d8b2df1p-3, 0xa217763de2547c8bull,
      {{0x1p-1, 0x1.f18e62c807941p+9, 0x1.f0d9f221bfb7dp+9,
        0x1.ff465266b2a8fp-2, 0x1.469a4p+21, 0x1.1ea13p+23, 0x1.cdd05p+23,
        0x1.f0ff75337bfc5p+21},
       {0x1.ccccccccccccdp-1, 0x1.bfccf280d39eep+10, 0x1.bdef4a6b345e4p+10,
        0x1.cae146fc84d8fp-1, 0x1.7332ap+22, 0x1.d624bddb17p+23,
        0x1.4eb86b5311cp+24, 0x1.93a72d8ca0b2ep+22},
       {0x1.3333333333333p+0, 0x1.2a88a1ab37bf4p+11, 0x1.f0b59894faa6ep+10,
        0x1.ff20eab742efdp-1, 0x1.ac11cb7d605p+29, 0x1.87b0bd85cd0ap+30,
        0x1.93a1745c4da64p+30, 0x1.9f299fb271215p+29}}}},
    {crypto::CipherId::RC4,
     {20000, 8,
      0x1.e8f43a8a71de7p+21, 0x1.d53f27bb2fec5p+13, 0x1.fb53f7ced9168p+1,
      0x1.64538ef34d6a1p-1, 0x1.84a604a9d772cp-2, 0x1.990952a9e91b7p-7,
      0x1.80b0472f58b41p-2, 0x1.dbc2d3230120cp-3, 0xe8c16e4ef643d18eull,
      {{0x1p-1, 0x1.f34fe168690ep+9, 0x1.f2cbc7290ec48p+9,
        0x1.ff788a6688271p-2, 0x1.4b434p+21, 0x1.1857fp+23, 0x1.b281dp+23,
        0x1.ef4fce31df8aap+21},
       {0x1.ccccccccccccdp-1, 0x1.c1617e112b596p+10, 0x1.c0010edf636f6p+10,
        0x1.cb6368f405db8p-1, 0x1.71e1ep+22, 0x1.f5ea5289cdbp+23,
        0x1.6788014db29p+24, 0x1.a0ff1f2d5de18p+22},
       {0x1.3333333333333p+0, 0x1.2b96540b723b9p+11, 0x1.f3042c79b2067p+10,
        0x1.ffb25e94a47abp-1, 0x1.9d32de5796c44p+29, 0x1.86b51c250511p+30,
        0x1.9353925ffbb08p+30, 0x1.993968a2ef8a2p+29}}}},
    {crypto::CipherId::Blowfish,
     {20000, 8,
      0x1.e27e29cd35a86p+21, 0x1.d57f4a57a786cp+13, 0x1.fe1cac083126fp+1,
      0x1.6a1cac083126fp-1, 0x1.7b3729eb948b1p-2, 0x1.9e83914af6c18p-7,
      0x1.860d60d0ad663p-2, 0x1.e38eb172ccb17p-3, 0x7d87620b0b1550a3ull,
      {{0x1p-1, 0x1.f9ff9adc02373p+9, 0x1.f97e53109a939p+9,
        0x1.ff7d2fa9be4c1p-2, 0x1.4598cp+21, 0x1.17244p+23, 0x1.b1aafp+23,
        0x1.e8babcd4c2a96p+21},
       {0x1.ccccccccccccdp-1, 0x1.c7660b5f9b982p+10, 0x1.c6075e47d94c6p+10,
        0x1.cb69f6ed53f47p-1, 0x1.6793ca4b714p+22, 0x1.d7150825c8p+23,
        0x1.47991ecef6p+24, 0x1.8c2444e9bc693p+22},
       {0x1.3333333333333p+0, 0x1.2f995cea67bacp+11, 0x1.f9b99156c73bap+10,
        0x1.ffb921d23be8cp-1, 0x1.ab18d3b3de9f4p+29, 0x1.7fb1704bdc288p+30,
        0x1.8da2593a8205cp+30, 0x1.9fd887bf2f054p+29}}}},
    {crypto::CipherId::TripleDES,
     {4097, 8,
      0x1.e8637f340cbf3p+21, 0x1.d52a335cca336p+13, 0x1.00d7f280d7f28p+2,
      0x1.6569a96569a96p-1, 0x1.8262164c76383p-2, 0x1.998289fca6c9p-7,
      0x1.8113b8803eecfp-2, 0x1.df7c39c6cb493p-3, 0xa4096b54596fbcafull,
      {{0x1p-1, 0x1.f3e3d970e9987p+9, 0x1.eb003f6cec1ddp+9,
        0x1.f6e545771240cp-2, 0x1.44438p+21, 0x1.17688p+23, 0x1.cbe45p+23,
        0x1.ee24a0760bf8p+21},
       {0x1.ccccccccccccdp-1, 0x1.c1e6aa18d23c6p+10, 0x1.bbfca732c909bp+10,
        0x1.c6be1c8299e66p-1, 0x1.4e24264f15c4p+22, 0x1.c74e88315c5p+23,
        0x1.3b3891e5cc5cp+24, 0x1.7d99d25be77f9p+22},
       {0x1.3333333333333p+0, 0x1.2bef1c108c283p+11, 0x1.f1adf6c35ea91p+10,
        0x1.fdbc67e3d43b4p-1, 0x1.465587c61557cp+27, 0x1.565fe6f3bbe54p+28,
        0x1.6dc5628761bb8p+28, 0x1.4aefaefed41ddp+27}}}},
    };
    for (const auto &g : golden) {
        SCOPED_TRACE(std::string(crypto::cipherInfo(g.cipher).name) + " "
                     + std::to_string(g.expected.sessions));
        ServerRates rates = desLikeRates();
        rates.cipher = g.cipher;
        auto params = smallParams();
        params.sessions = g.expected.sessions;
        expectIdentical(ssl::runServerSim(rates, params), g.expected);
    }
}

// Populations on either side of a chain-chunk boundary: every thread
// count gives the one-thread result, field for field.
TEST(ServerSim, ChunkingIsInvisible)
{
    std::vector<ServerRates> rates;
    for (auto id : {crypto::CipherId::TripleDES, crypto::CipherId::RC4,
                    crypto::CipherId::Blowfish}) {
        ServerRates r = desLikeRates();
        r.cipher = id;
        rates.push_back(r);
    }
    const uint64_t chunk = ssl::chain_chunk_sessions;
    for (uint64_t sessions : {uint64_t{1}, chunk - 1, chunk, chunk + 1}) {
        auto params = smallParams();
        params.sessions = sessions;
        auto serial = ssl::runServerSims(rates, params, 1);
        for (unsigned threads : {3u, 8u}) {
            auto parallel = ssl::runServerSims(rates, params, threads);
            ASSERT_EQ(parallel.size(), serial.size());
            for (size_t i = 0; i < serial.size(); i++) {
                SCOPED_TRACE("sessions " + std::to_string(sessions)
                             + " threads " + std::to_string(threads)
                             + " cell " + std::to_string(i));
                expectIdentical(serial[i], parallel[i]);
            }
        }
    }
}

// A load factor of 0 gives NaN percentiles and a negative one runs
// time backwards; neither has a defined result.
TEST(ServerSim, RejectsNonPositiveLoadFactor)
{
    for (double bad : {0.0, -0.5, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
        auto params = smallParams();
        params.loadFactors = {0.5, bad};
        EXPECT_THROW(ssl::runServerSim(desLikeRates(), params),
                     std::invalid_argument);
        EXPECT_THROW(ssl::runServerSims({desLikeRates()}, params, 2),
                     std::invalid_argument);
    }
}

// An inverted byte range breaks the session-size clamp's precondition.
TEST(ServerSim, RejectsInvertedByteRange)
{
    auto params = smallParams();
    params.minBytes = 4096;
    params.maxBytes = 1024;
    EXPECT_THROW(ssl::runServerSim(desLikeRates(), params),
                 std::invalid_argument);
    EXPECT_THROW(ssl::runServerSims({desLikeRates()}, params, 2),
                 std::invalid_argument);
}

// An empty population or server bank has no defined result: both
// entry points reject it instead of reading past the latency buffer
// or picking a core from an empty bank.
TEST(ServerSim, RejectsZeroSessions)
{
    auto params = smallParams();
    params.sessions = 0;
    EXPECT_THROW(ssl::runServerSim(desLikeRates(), params),
                 std::invalid_argument);
    EXPECT_THROW(ssl::runServerSims({desLikeRates()}, params, 2),
                 std::invalid_argument);
}

TEST(ServerSim, RejectsZeroServers)
{
    auto params = smallParams();
    params.servers = 0;
    EXPECT_THROW(ssl::runServerSim(desLikeRates(), params),
                 std::invalid_argument);
    EXPECT_THROW(ssl::runServerSims({desLikeRates()}, params, 2),
                 std::invalid_argument);
}

TEST(ServerSim, FractionsSumToOne)
{
    auto r = ssl::runServerSim(desLikeRates(), smallParams());
    EXPECT_NEAR(r.handshakeFraction + r.setupFraction + r.bulkFraction
                    + r.otherFraction,
                1.0, 1e-9);
    EXPECT_GT(r.handshakeFraction, 0.0);
    EXPECT_GT(r.setupFraction, 0.0);
    EXPECT_GT(r.bulkFraction, 0.0);
    EXPECT_GT(r.otherFraction, 0.0);
    // Log-normal with an 8 KB median and heavy right tail: the mean
    // lands above the median but well under the 1 MB clamp.
    EXPECT_GT(r.meanSessionBytes, 8000.0);
    EXPECT_LT(r.meanSessionBytes, 40000.0);
    EXPECT_GE(r.meanRequests, 1.0);
}

TEST(ServerSim, LatencyPercentilesGrowWithLoad)
{
    auto r = ssl::runServerSim(desLikeRates(), smallParams());
    ASSERT_EQ(r.points.size(), 3u);
    for (const auto &pt : r.points) {
        EXPECT_LE(pt.p50Cycles, pt.p95Cycles);
        EXPECT_LE(pt.p95Cycles, pt.p99Cycles);
        EXPECT_GT(pt.p50Cycles, 0.0);
    }
    EXPECT_LT(r.points[0].p99Cycles, r.points[1].p99Cycles);
    EXPECT_LT(r.points[1].p99Cycles, r.points[2].p99Cycles);
}

TEST(ServerSim, SaturationCapsAchievedThroughput)
{
    auto r = ssl::runServerSim(desLikeRates(), smallParams());
    const auto &light = r.points[0];   // load 0.5
    const auto &beyond = r.points[2];  // load 1.2
    // Below saturation the server keeps up with the offered rate.
    EXPECT_NEAR(light.achievedPerGcycle / light.offeredPerGcycle, 1.0,
                0.05);
    // Past saturation throughput pins at capacity: achieved stays well
    // under offered while the cores run essentially flat out.
    EXPECT_LT(beyond.achievedPerGcycle, 0.92 * beyond.offeredPerGcycle);
    EXPECT_GT(beyond.utilization, 0.95);
}

// Key agility as a first-class axis: the Figure 6 Blowfish setup cost
// must surface as a dominant per-session fraction.
TEST(ServerSim, KeySetupCostIsFirstClass)
{
    auto des = ssl::runServerSim(desLikeRates(), smallParams());
    auto bf = ssl::runServerSim(blowfishLikeRates(), smallParams());
    EXPECT_GT(bf.setupFraction, 5 * des.setupFraction);
    EXPECT_GT(bf.setupFraction, 0.2);
    EXPECT_GT(bf.meanServiceCycles, des.meanServiceCycles);
}

// Session resumption shifts the breakdown toward key setup: resumed
// sessions skip the RSA private op but still pay the full key
// schedule, so a hot session cache is exactly where the Figure 6
// outlier dominates the handshake work that remains.
TEST(ServerSim, ResumptionMakesKeySetupDominant)
{
    auto params = smallParams();
    params.loadFactors = {0.5};
    params.resumedFraction = 0.0;
    auto cold = ssl::runServerSim(blowfishLikeRates(), params);
    params.resumedFraction = 0.9;
    auto hot = ssl::runServerSim(blowfishLikeRates(), params);
    EXPECT_NEAR(cold.resumedShare, 0.0, 1e-9);
    EXPECT_NEAR(hot.resumedShare, 0.9, 0.02);
    EXPECT_GT(hot.setupFraction, 1.2 * cold.setupFraction);
    EXPECT_LT(hot.handshakeFraction, cold.handshakeFraction);
    EXPECT_LT(hot.meanServiceCycles, cold.meanServiceCycles);
}

// The chain digest is a function of the chain cipher: different bulk
// ciphers produce different digests over the identical population, and
// the stream-cipher path (RC4) works too.
TEST(ServerSim, ChainDigestTracksCipher)
{
    auto params = smallParams();
    params.loadFactors = {0.5}; // digest is load-independent
    auto des = ssl::runServerSim(desLikeRates(), params);
    auto bf = ssl::runServerSim(blowfishLikeRates(), params);
    ServerRates rc4 = desLikeRates();
    rc4.cipher = crypto::CipherId::RC4;
    auto stream = ssl::runServerSim(rc4, params);
    EXPECT_NE(des.chainDigest, bf.chainDigest);
    EXPECT_NE(des.chainDigest, stream.chainDigest);
    EXPECT_NE(des.chainDigest, 0u);
}

} // namespace
