#include "ssl/server.hh"

#include <algorithm>
#include <cmath>
#include <memory>
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
 * its RNG, including each session's chain IV and the chain cipher's
 * key. It depends only on the cipher and the params, so every machine
 * model composes from the same one.
 */
struct Population
{
    std::unique_ptr<crypto::BlockCipher> chainCipher; ///< null: stream
    unsigned blockBytes = 0;
    std::vector<uint64_t> bytes;
    std::vector<uint8_t> requests; ///< in [1, 64]
    std::vector<uint8_t> resumed;
    std::vector<uint64_t> iv; ///< chain IV per session
    uint64_t resumedCount = 0;
};

void
checkParams(const ServerSimParams &params)
{
    if (params.sessions == 0)
        throw std::invalid_argument("server sim: sessions must be > 0");
    if (params.servers == 0)
        throw std::invalid_argument("server sim: servers must be > 0");
    if (params.minBytes > params.maxBytes)
        throw std::invalid_argument(
            "server sim: minBytes must be <= maxBytes");
    for (double load : params.loadFactors)
        if (!std::isfinite(load) || load <= 0)
            throw std::invalid_argument(
                "server sim: load factors must be finite and > 0");
}

/** The serial RNG draw: one Xorshift64 stream per population. */
Population
drawPopulation(crypto::CipherId cipher, const ServerSimParams &params)
{
    const auto &info = crypto::cipherInfo(cipher);
    Population pop;
    pop.blockBytes = info.blockBytes;
    Xorshift64 rng(params.seed);
    if (!info.isStream) {
        pop.chainCipher = crypto::makeBlockCipher(cipher);
        pop.chainCipher->setKey(rng.bytes(info.keyBits / 8));
    }

    const uint64_t n = params.sessions;
    pop.bytes.resize(n);
    pop.requests.resize(n);
    pop.resumed.resize(n);
    pop.iv.resize(n);
    for (uint64_t i = 0; i < n; i++) {
        bool resumed = rng.nextDouble() < params.resumedFraction;
        pop.resumed[i] = resumed;
        pop.resumedCount += resumed;
        double z = normalSample(rng);
        double log2b = params.log2MedianBytes + params.log2SigmaBytes * z;
        double b = std::exp2(log2b);
        b = std::clamp(b, static_cast<double>(params.minBytes),
                       static_cast<double>(params.maxBytes));
        pop.bytes[i] = static_cast<uint64_t>(b);
        pop.requests[i] = static_cast<uint8_t>(
            requestCount(rng, params.meanRequestsPerSession));
        pop.iv[i] = rng.next();
    }
    return pop;
}

/**
 * XOR of the digest terms of sessions [begin, end). Each term depends
 * only on its own session, so any split of the population into chunks
 * folds to the same digest.
 */
uint64_t
chainFold(const Population &pop, uint64_t begin, uint64_t end)
{
    uint64_t digest = 0;
    for (uint64_t i = begin; i < end; i++) {
        // CBC chaining state carried across the session's requests:
        // each boundary advances the running chain block, no fresh IV
        // or key schedule mid-session.
        ChainState chain(pop.chainCipher.get(), pop.blockBytes, pop.iv[i]);
        uint32_t requests = pop.requests[i];
        uint64_t per_req = pop.bytes[i] / requests;
        uint64_t extra = pop.bytes[i] % requests;
        for (uint32_t r = 0; r < requests; r++)
            chain.absorbRequest(per_req + (r < extra ? 1 : 0));
        digest ^= splitmix64(chain.fold() ^ (i * 0x9E3779B97F4A7C15ull));
    }
    return digest;
}

/** One session's service cycles, split the way Figure 2 splits them. */
struct SessionCost
{
    double handshake, setup, bulk, other;

    double
    service() const
    {
        return handshake + setup + bulk + other;
    }
};

SessionCost
sessionCost(const ServerRates &rates, const ServerSimParams &params,
            const Population &pop, uint64_t i)
{
    double bytes = static_cast<double>(pop.bytes[i]);
    uint32_t requests = pop.requests[i];
    // Resumed sessions skip the RSA private op but still derive fresh
    // session keys (the full key schedule); follow-on requests ride the
    // kept-alive connection at a fraction of the first request's
    // overhead.
    return {pop.resumed[i] ? 0.0 : rates.serverHandshakeCycles,
            rates.keySetupCycles,
            rates.prologueCycles * requests + rates.cyclesPerByte * bytes,
            rates.requestOverheadCycles
                    * (1.0 + params.keepAliveFactor * (requests - 1))
                + rates.perByteOverheadCycles * bytes};
}

/**
 * Population aggregates of one cell into @p res, summed in session
 * order; returns the total service cycles the load passes bill.
 */
double
aggregateCell(const ServerRates &rates, const ServerSimParams &params,
              const Population &pop, ServerSimResult &res)
{
    const uint64_t n = params.sessions;
    res.sessions = n;
    res.servers = params.servers;

    double handshake_sum = 0, setup_sum = 0, bulk_sum = 0, other_sum = 0;
    double bytes_sum = 0, requests_sum = 0;
    for (uint64_t i = 0; i < n; i++) {
        SessionCost c = sessionCost(rates, params, pop, i);
        handshake_sum += c.handshake;
        setup_sum += c.setup;
        bulk_sum += c.bulk;
        other_sum += c.other;
        bytes_sum += static_cast<double>(pop.bytes[i]);
        requests_sum += pop.requests[i];
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
    res.points.resize(params.loadFactors.size());
    return total;
}

/**
 * One offered-load factor of one cell: FCFS M/G/c queue over the
 * population, service times recomputed per session.
 */
ServerLoadPoint
loadPoint(const ServerRates &rates, const ServerSimParams &params,
          const Population &pop, double mean_service, double total,
          size_t li)
{
    const uint64_t n = params.sessions;
    double load = params.loadFactors[li];
    // Capacity is servers/meanService sessions per cycle; the offered
    // rate scales it by the load factor.
    double lambda = load * params.servers / mean_service;
    Xorshift64 arng(params.seed + 0x9E3779B97F4A7C15ull * (li + 1));

    // Each arrival takes the earliest-free core; equal free times are
    // interchangeable, so which of them it takes cannot change a value.
    std::vector<double> free_at(params.servers, 0.0);
    std::vector<double> latency(n);
    double t = 0, makespan = 0;
    for (uint64_t i = 0; i < n; i++) {
        t += expSample(arng, 1.0 / lambda);
        auto core = std::min_element(free_at.begin(), free_at.end());
        double start = std::max(t, *core);
        double done = start + sessionCost(rates, params, pop, i).service();
        *core = done;
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
    // Each selection leaves every larger latency at or after its index,
    // so the next, higher percentile is selected within that suffix.
    size_t from = 0;
    auto pct = [&](double q) {
        size_t k = static_cast<size_t>(q * static_cast<double>(n - 1));
        std::nth_element(latency.begin() + from, latency.begin() + k,
                         latency.end());
        from = k;
        return latency[k];
    };
    pt.p50Cycles = pct(0.50);
    pt.p95Cycles = pct(0.95);
    pt.p99Cycles = pct(0.99);
    return pt;
}

} // namespace

ServerSimResult
runServerSim(const ServerRates &rates, const ServerSimParams &params)
{
    return runServerSims({rates}, params, 1).front();
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

    // Three phases, each writing pre-assigned slots, so any thread
    // count yields identical results. Phase 1: the RNG draws, one
    // serial stream per cipher.
    std::vector<Population> pops(ciphers.size());
    util::parallelFor(ciphers.size(), threads, [&](size_t p) {
        pops[p] = drawPopulation(ciphers[p], params);
    });

    // Phase 2: the chain pass in fixed chunks, each folding into its
    // own slot, then every cell's aggregates.
    const uint64_t n = params.sessions;
    const size_t chunks = (n + chain_chunk_sessions - 1)
        / chain_chunk_sessions;
    const size_t chain_tasks = ciphers.size() * chunks;
    std::vector<uint64_t> folds(chain_tasks);
    std::vector<double> totals(rates.size());
    util::parallelFor(chain_tasks + rates.size(), threads, [&](size_t t) {
        if (t < chain_tasks) {
            uint64_t begin = (t % chunks) * chain_chunk_sessions;
            folds[t] = chainFold(pops[t / chunks], begin,
                                 std::min(n, begin + chain_chunk_sessions));
            return;
        }
        size_t i = t - chain_tasks;
        totals[i] = aggregateCell(rates[i], params, pops[pop_of[i]],
                                  results[i]);
    });
    for (size_t i = 0; i < rates.size(); i++)
        for (size_t c = 0; c < chunks; c++)
            results[i].chainDigest ^= folds[pop_of[i] * chunks + c];
    for (auto &pop : pops)
        std::vector<uint64_t>().swap(pop.iv); // read by the chain only

    // Phase 3: one task per (cell, load factor).
    const size_t loads = params.loadFactors.size();
    util::parallelFor(rates.size() * loads, threads, [&](size_t t) {
        size_t i = t / loads, li = t % loads;
        results[i].points[li] =
            loadPoint(rates[i], params, pops[pop_of[i]],
                      results[i].meanServiceCycles, totals[i], li);
    });
    return results;
}

} // namespace cryptarch::ssl
