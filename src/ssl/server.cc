#include "ssl/server.hh"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <queue>
#include <stdexcept>

#include "util/parallel.hh"
#include "util/xorshift.hh"

namespace cryptarch::ssl
{

namespace
{

using util::Xorshift64;

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Exponential sample with the given mean (inverse CDF). */
double
expSample(Xorshift64 &rng, double mean)
{
    // 1 - nextDouble() is in (0, 1], so the log never sees zero.
    return -std::log(1.0 - rng.nextDouble()) * mean;
}

/** Standard normal sample (Box-Muller, one value per pair of draws). */
double
normalSample(Xorshift64 &rng)
{
    double u1 = 1.0 - rng.nextDouble(); // (0, 1]
    double u2 = rng.nextDouble();
    return std::sqrt(-2.0 * std::log(u1))
        * std::cos(2.0 * 3.141592653589793 * u2);
}

/** Geometric number of requests with the given mean, in [1, 64]. */
uint32_t
requestCount(Xorshift64 &rng, double mean)
{
    if (mean <= 1.0)
        return 1;
    double p = 1.0 / mean;
    double u = 1.0 - rng.nextDouble(); // (0, 1]
    double k = 1.0 + std::floor(std::log(u) / std::log(1.0 - p));
    return static_cast<uint32_t>(std::clamp(k, 1.0, 64.0));
}

/**
 * Per-session CBC chain carried across requests. Block ciphers advance
 * a real chain block through the session's bulk cipher (one shared key
 * schedule per simulation — the chain models the *state*, key agility
 * is billed through ServerRates::keySetupCycles); RC4 keeps a 64-bit
 * keystream-style mix. Either way the final fold feeds the population
 * digest.
 */
class ChainState
{
  public:
    explicit ChainState(const crypto::BlockCipher *cipher,
                        unsigned block_bytes, uint64_t iv)
        : cipher_(cipher), blockBytes_(block_bytes)
    {
        for (unsigned i = 0; i < blockBytes_ && i < sizeof(block_); i++)
            block_[i] = static_cast<uint8_t>(iv >> (8 * (i & 7)));
        mix_ = iv;
    }

    void
    absorbRequest(uint64_t request_bytes)
    {
        if (cipher_) {
            for (unsigned i = 0; i < 8; i++)
                block_[i] ^= static_cast<uint8_t>(request_bytes
                                                  >> (8 * i));
            cipher_->encryptBlock(block_, block_);
        } else {
            mix_ = splitmix64(mix_ ^ request_bytes);
        }
    }

    uint64_t
    fold() const
    {
        if (!cipher_)
            return mix_;
        uint64_t f = 0;
        for (unsigned i = 0; i < 8; i++)
            f |= static_cast<uint64_t>(block_[i]) << (8 * i);
        return f;
    }

  private:
    const crypto::BlockCipher *cipher_;
    unsigned blockBytes_;
    uint8_t block_[32] = {};
    uint64_t mix_ = 0;
};

/**
 * One cipher's session population: everything a simulation draws from
 * its RNG, plus the chain pass over it. It depends only on the cipher
 * and the params, so every machine model composes from the same one.
 */
struct Population
{
    std::vector<uint64_t> bytes;
    std::vector<uint8_t> requests; ///< in [1, 64]
    std::vector<uint8_t> resumed;
    uint64_t chainDigest = 0;
    uint64_t resumedCount = 0;
};

void
checkParams(const ServerSimParams &params)
{
    if (params.sessions == 0)
        throw std::invalid_argument("server sim: sessions must be > 0");
    if (params.servers == 0)
        throw std::invalid_argument("server sim: servers must be > 0");
}

Population
drawPopulation(crypto::CipherId cipher, const ServerSimParams &params)
{
    const auto &info = crypto::cipherInfo(cipher);
    std::unique_ptr<crypto::BlockCipher> chain_cipher;
    Xorshift64 rng(params.seed);
    if (!info.isStream) {
        chain_cipher = crypto::makeBlockCipher(cipher);
        chain_cipher->setKey(rng.bytes(info.keyBits / 8));
    }

    const uint64_t n = params.sessions;
    Population pop;
    pop.bytes.resize(n);
    pop.requests.resize(n);
    pop.resumed.resize(n);
    for (uint64_t i = 0; i < n; i++) {
        bool resumed = rng.nextDouble() < params.resumedFraction;
        pop.resumed[i] = resumed;
        pop.resumedCount += resumed;
        double z = normalSample(rng);
        double log2b = params.log2MedianBytes + params.log2SigmaBytes * z;
        double b = std::exp2(log2b);
        b = std::clamp(b, static_cast<double>(params.minBytes),
                       static_cast<double>(params.maxBytes));
        uint64_t bytes = static_cast<uint64_t>(b);
        uint32_t requests =
            requestCount(rng, params.meanRequestsPerSession);
        pop.bytes[i] = bytes;
        pop.requests[i] = static_cast<uint8_t>(requests);

        // CBC chaining state carried across the session's requests:
        // each boundary advances the running chain block, no fresh IV
        // or key schedule mid-session.
        ChainState chain(chain_cipher.get(), info.blockBytes, rng.next());
        uint64_t per_req = bytes / requests, extra = bytes % requests;
        for (uint32_t r = 0; r < requests; r++)
            chain.absorbRequest(per_req + (r < extra ? 1 : 0));
        pop.chainDigest ^= splitmix64(chain.fold()
                                      ^ (i * 0x9E3779B97F4A7C15ull));
    }
    return pop;
}

/** Service times and aggregates from @p rates, then the load pass. */
ServerSimResult
composeServerSim(const ServerRates &rates, const ServerSimParams &params,
                 const Population &pop)
{
    const uint64_t n = params.sessions;
    ServerSimResult res;
    res.sessions = n;
    res.servers = params.servers;

    // --- population pass: compose every session's service ---
    std::vector<double> service(n);
    double handshake_sum = 0, setup_sum = 0, bulk_sum = 0, other_sum = 0;
    double bytes_sum = 0, requests_sum = 0;

    for (uint64_t i = 0; i < n; i++) {
        uint64_t bytes = pop.bytes[i];
        uint32_t requests = pop.requests[i];
        // Resumed sessions skip the RSA private op but still derive
        // fresh session keys (the full key schedule); follow-on
        // requests ride the kept-alive connection at a fraction of
        // the first request's overhead.
        double handshake =
            pop.resumed[i] ? 0.0 : rates.serverHandshakeCycles;
        double setup = rates.keySetupCycles;
        double bulk = rates.prologueCycles * requests
            + rates.cyclesPerByte * static_cast<double>(bytes);
        double other = rates.requestOverheadCycles
                * (1.0 + params.keepAliveFactor * (requests - 1))
            + rates.perByteOverheadCycles * static_cast<double>(bytes);
        service[i] = handshake + setup + bulk + other;

        handshake_sum += handshake;
        setup_sum += setup;
        bulk_sum += bulk;
        other_sum += other;
        bytes_sum += static_cast<double>(bytes);
        requests_sum += requests;
    }

    double total = handshake_sum + setup_sum + bulk_sum + other_sum;
    res.meanServiceCycles = total / static_cast<double>(n);
    res.meanSessionBytes = bytes_sum / static_cast<double>(n);
    res.meanRequests = requests_sum / static_cast<double>(n);
    res.resumedShare =
        static_cast<double>(pop.resumedCount) / static_cast<double>(n);
    res.handshakeFraction = handshake_sum / total;
    res.setupFraction = setup_sum / total;
    res.bulkFraction = bulk_sum / total;
    res.otherFraction = other_sum / total;
    res.chainDigest = pop.chainDigest;

    // --- load pass: FCFS M/G/c queue per offered-load factor ---
    std::vector<double> latency(n);
    for (size_t li = 0; li < params.loadFactors.size(); li++) {
        double load = params.loadFactors[li];
        // Capacity is servers/meanService sessions per cycle; the
        // offered rate scales it by the load factor.
        double lambda = load * params.servers / res.meanServiceCycles;
        Xorshift64 arng(params.seed
                        + 0x9E3779B97F4A7C15ull * (li + 1));

        std::priority_queue<double, std::vector<double>,
                            std::greater<double>>
            free_at;
        for (unsigned s = 0; s < params.servers; s++)
            free_at.push(0.0);

        double t = 0, makespan = 0;
        for (uint64_t i = 0; i < n; i++) {
            t += expSample(arng, 1.0 / lambda);
            double f = free_at.top();
            free_at.pop();
            double start = std::max(t, f);
            double done = start + service[i];
            free_at.push(done);
            latency[i] = done - t;
            makespan = std::max(makespan, done);
        }

        ServerLoadPoint pt;
        pt.loadFactor = load;
        pt.offeredPerGcycle = lambda * 1e9;
        pt.achievedPerGcycle = static_cast<double>(n) / makespan * 1e9;
        pt.utilization = total / (params.servers * makespan);
        double mean = 0;
        for (double l : latency)
            mean += l;
        pt.meanCycles = mean / static_cast<double>(n);
        auto pct = [&](double q) {
            size_t k = static_cast<size_t>(
                q * static_cast<double>(n - 1));
            std::nth_element(latency.begin(), latency.begin() + k,
                             latency.end());
            return latency[k];
        };
        pt.p50Cycles = pct(0.50);
        pt.p95Cycles = pct(0.95);
        pt.p99Cycles = pct(0.99);
        res.points.push_back(pt);
    }
    return res;
}

} // namespace

ServerSimResult
runServerSim(const ServerRates &rates, const ServerSimParams &params)
{
    checkParams(params);
    return composeServerSim(rates, params,
                            drawPopulation(rates.cipher, params));
}

std::vector<ServerSimResult>
runServerSims(const std::vector<ServerRates> &rates,
              const ServerSimParams &params, unsigned threads)
{
    checkParams(params);
    std::vector<ServerSimResult> results(rates.size());
    if (rates.empty())
        return results;

    // One population per distinct cipher, shared by its cells.
    std::vector<crypto::CipherId> ciphers;
    std::vector<size_t> pop_of(rates.size());
    for (size_t i = 0; i < rates.size(); i++) {
        auto it = std::find(ciphers.begin(), ciphers.end(),
                            rates[i].cipher);
        pop_of[i] = static_cast<size_t>(it - ciphers.begin());
        if (it == ciphers.end())
            ciphers.push_back(rates[i].cipher);
    }
    std::vector<Population> pops(ciphers.size());
    std::vector<std::once_flag> drawn(ciphers.size());
    auto population = [&](size_t p) -> const Population & {
        std::call_once(drawn[p],
                       [&] { pops[p] = drawPopulation(ciphers[p], params); });
        return pops[p];
    };

    // One queue: the draws first, so distinct ciphers draw in parallel,
    // then the cells, each waiting only on its own cipher's draw.
    // Pre-assigned result slots: worker scheduling cannot reorder or
    // interleave output, so any thread count yields identical results.
    util::parallelFor(ciphers.size() + rates.size(), threads,
                      [&](size_t t) {
                          if (t < ciphers.size()) {
                              population(t);
                              return;
                          }
                          size_t i = t - ciphers.size();
                          results[i] = composeServerSim(
                              rates[i], params, population(pop_of[i]));
                      });
    return results;
}

} // namespace cryptarch::ssl
