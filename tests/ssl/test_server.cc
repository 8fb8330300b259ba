/** @file Tests for the server-at-scale SSL workload simulation. */

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

// An empty population or server bank has no defined result: both
// entry points reject it instead of reading past the latency buffer
// or popping an empty queue.
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
