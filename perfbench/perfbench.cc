/**
 * @file
 * Workload runner behind the repository benchmark (perfbench/run.py).
 *
 * One process runs one named workload under the default configuration
 * and prints its measurements as one JSON object on the last line of
 * stdout. Work goes only through the public entry points of
 * src/driver, src/ssl, src/verify, src/crypto and src/util. run.py
 * builds this program, starts it in several fresh processes (set-up is
 * a per-process cost) and assembles the benchmark's result.
 *
 * Workloads (batch loops: a pass submits its whole grid and waits):
 *   paper_grids    fig04 + fig10 + tab02 cells at 4 KB (104 cells); the
 *                  seed permutes the order cells are submitted in, a
 *                  fresh permutation each timed pass.
 *   long_sessions  Optimized kernels of all eight ciphers at ~64 KB on
 *                  ten models (80 cells); the seed draws each cipher's
 *                  session length from a fixed set of block multiples.
 *   ssl_server     the server_scale pipeline: handshake measurement and
 *                  a two-probe BaselineRot sweep give the ServerRates
 *                  (set-up), then runServerSims over the session
 *                  population (timed); the seed is ServerSimParams.seed.
 *
 * Modes:
 *   run    set-up, then timed passes until --seconds have elapsed
 *   trace  the traced run, on one thread: spans around every call into
 *          a layer, kept in memory and written to --trace-out at the
 *          end; per-layer metrics on stdout
 *
 * Every pass checks its outputs: every cell ok, and an FNV-1a digest
 * over each result's driver::toJson(stats) (plus, on ssl_server, every
 * field of every server simulation result) identical across all passes
 * of the process. Passes run on min(4, nproc) workers.
 *
 * Usage: perfbench --workload NAME --mode run|trace --seed N
 *                  [--seconds S] [--process I] [--smoke]
 *                  [--trace-out PATH]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "crypto/cipher.hh"
#include "driver/grids.hh"
#include "driver/json.hh"
#include "driver/sweep.hh"
#include "driver/trace.hh"
#include "driver/workload.hh"
#include "ssl/server.hh"
#include "ssl/session.hh"
#include "util/checksum.hh"
#include "util/pi.hh"
#include "util/xorshift.hh"
#include "verify/oracle.hh"

extern char **environ;

namespace
{

using namespace cryptarch;
using Clock = std::chrono::steady_clock;
using driver::SweepCell;
using driver::SweepResult;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest percentile with at least ten samples above it: the
 * (n-10)-th smallest sample. Below 22 samples that percentile would
 * fall under the median, so the tail is the maximum instead.
 */
double
tail(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v.size() >= 22 ? v[v.size() - 11] : v.back();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KB
}

uint64_t
fnvString(uint64_t h, std::string_view s)
{
    return util::fnv1a64(s.data(), s.size(), h);
}

/** Folds a number's raw bit pattern into the FNV-1a state @p h. */
template <typename T>
uint64_t
fnvBits(uint64_t h, T v)
{
    return util::fnv1a64(&v, sizeof(v), h);
}

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** A JSON object built one member at a time (numbers and strings). */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }

    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    JsonObject &
    raw(const std::string &key, const std::string &v)
    {
        body += (body.empty() ? "\"" : ", \"") + key + "\": " + v;
        return *this;
    }

    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

std::string
numList(const std::vector<double> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); i++) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", v[i]);
        s += buf;
    }
    return s + "]";
}

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

/** One timed call into a layer. Times are seconds since process start. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int cell = -1;   ///< canonical cell index, -1 when not per cell
};

/** Spans kept in memory until the run ends. */
class Tracer
{
  public:
    Tracer() : t0(Clock::now()) {}

    double now() const { return secondsSince(t0); }

    int
    open(const std::string &name, int parent, int cell = -1)
    {
        spans.push_back({name, now(), 0, parent, cell});
        return static_cast<int>(spans.size()) - 1;
    }

    void close(int id) { spans[id].end = now(); }

    /** A span whose times were measured elsewhere (RecordTiming). */
    void
    add(const std::string &name, double start, double end, int parent,
        int cell)
    {
        spans.push_back({name, start, end, parent, cell});
    }

    const std::vector<Span> &all() const { return spans; }

    /** Summed duration of spans named @p name under root @p root. */
    double
    total(const std::string &name, int root) const
    {
        double s = 0;
        for (size_t i = 0; i < spans.size(); i++)
            if (spans[i].name == name && rootOf(static_cast<int>(i)) == root)
                s += spans[i].end - spans[i].start;
        return s;
    }

    /** Durations of the spans named @p name under root @p root. */
    std::vector<double>
    durations(const std::string &name, int root) const
    {
        std::vector<double> d;
        for (size_t i = 0; i < spans.size(); i++)
            if (spans[i].name == name && rootOf(static_cast<int>(i)) == root)
                d.push_back(spans[i].end - spans[i].start);
        return d;
    }

    /** Self time: duration minus the children's durations. */
    std::vector<double>
    selfTimes() const
    {
        std::vector<double> self(spans.size());
        for (size_t i = 0; i < spans.size(); i++)
            self[i] = spans[i].end - spans[i].start;
        for (const auto &s : spans)
            if (s.parent >= 0)
                self[s.parent] -= s.end - s.start;
        return self;
    }

    int
    rootOf(int i) const
    {
        while (spans[i].parent >= 0)
            i = spans[i].parent;
        return i;
    }

    /** Write the spans as Chrome trace events. */
    bool
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %zu, \"parent\": %d, "
                         "\"cell\": %d}}",
                         i ? "," : "", s.name.c_str(), s.start * 1e6,
                         (s.end - s.start) * 1e6, i, s.parent, s.cell);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point t0;
    std::vector<Span> spans;
};

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

const std::vector<crypto::CipherId> ssl_ciphers = {
    crypto::CipherId::TripleDES, crypto::CipherId::RC4,
    crypto::CipherId::Blowfish};

constexpr size_t probe_lo = 2048;
constexpr size_t probe_hi = 4096;

struct Workload
{
    /** Sweep cells in canonical order (ssl_server: the probe cells). */
    std::vector<SweepCell> cells;
    uint64_t seed = 0;
    unsigned process = 0; ///< index of this process within the run
    bool shuffle = false; ///< permute the submission order per pass
    bool ssl = false;
    ssl::ServerSimParams server; ///< ssl_server population
};

void
appendSpec(std::vector<SweepCell> &cells, const driver::SweepSpec &spec)
{
    for (auto c : spec.ciphers)
        for (auto v : spec.variants)
            for (const auto &m : spec.models)
                cells.push_back({c, v, m, spec.bytes});
}

Workload
makeWorkloadSpec(const std::string &name, uint64_t seed, bool smoke)
{
    Workload wl;
    wl.seed = seed;
    util::Xorshift64 rng(seed * 0x9E3779B97F4A7C15ull + 0xB5);
    if (name == "paper_grids") {
        wl.shuffle = true;
        appendSpec(wl.cells, driver::fig04Spec());
        for (const auto &c : driver::fig10Cells())
            wl.cells.push_back(c);
        appendSpec(wl.cells, driver::tab02Spec());
        for (auto &c : wl.cells)
            c.bytes = driver::session_bytes;
    } else if (name == "long_sessions") {
        const std::vector<sim::MachineConfig> models = {
            sim::MachineConfig::fourWide(),
            sim::MachineConfig::fourWidePlus(),
            sim::MachineConfig::eightWidePlus(),
            sim::MachineConfig::dataflow(),
            sim::MachineConfig::dfPlusAlias(),
            sim::MachineConfig::dfPlusBranch(),
            sim::MachineConfig::dfPlusIssue(),
            sim::MachineConfig::dfPlusMem(),
            sim::MachineConfig::dfPlusResources(),
            sim::MachineConfig::dfPlusWindow()};
        // Multiples of 1 KB (every cipher's block divides it) around
        // 64 KB; the smoke run keeps the shape at an eighth of the size.
        const size_t lengths[] = {63 << 10, 64 << 10, 65 << 10, 66 << 10,
                                  62 << 10};
        for (auto id : driver::allCiphers()) {
            size_t bytes = lengths[rng.nextBelow(5)];
            if (smoke)
                bytes /= 8;
            for (const auto &m : models)
                wl.cells.push_back(
                    {id, kernels::KernelVariant::Optimized, m, bytes});
        }
    } else if (name == "ssl_server") {
        wl.ssl = true;
        const std::vector<sim::MachineConfig> models = {
            sim::MachineConfig::fourWide(),
            sim::MachineConfig::fourWidePlus(),
            sim::MachineConfig::eightWidePlus(),
            sim::MachineConfig::dataflow()};
        for (auto id : ssl_ciphers)
            for (const auto &m : models)
                for (size_t bytes : {probe_lo, probe_hi})
                    wl.cells.push_back(
                        {id, kernels::KernelVariant::BaselineRot, m, bytes});
        wl.server.sessions = smoke ? 5000 : 100000;
        wl.server.seed = seed;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return wl;
}

/**
 * Pass @p pass submits cells[order[k]] k-th. The set-up pass (pass 0)
 * keeps the grids' own order, as a one-shot bench invocation does.
 * Scheduling and memory use depend on the order, so every timed pass
 * of every process draws a fresh permutation: a run's medians then
 * span many orders instead of resting on one.
 */
std::vector<size_t>
submissionOrder(const Workload &wl, size_t pass)
{
    std::vector<size_t> order(wl.cells.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    util::Xorshift64 rng((wl.seed + 1) * 0xD1B54A32D192ED03ull
                         + (uint64_t{wl.process} << 32) + pass);
    if (wl.shuffle && pass > 0)
        for (size_t i = order.size(); i > 1; i--)
            std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

// ------------------------------------------------------------------
// Untraced passes
// ------------------------------------------------------------------

/** What one pass produced, results in canonical cell order. */
struct Pass
{
    double wall = 0;
    std::vector<SweepResult> results;
    size_t ok = 0;
    uint64_t insts = 0;  ///< Σ SimStats.instructions
    uint64_t cycles = 0; ///< Σ SimStats.cycles
    uint64_t digest = 0;
};

/** Digest the results into p.digest and tally ok cells. */
void
digestResults(Pass &p)
{
    uint64_t h = util::fnv1a64_init;
    for (const auto &r : p.results) {
        h = fnvString(h, driver::cellOutcomeName(r.outcome));
        h = fnvString(h, driver::toJson(r.stats));
        if (r.ok())
            p.ok++;
        p.insts += r.stats.instructions;
        p.cycles += r.stats.cycles;
    }
    p.digest = h;
}

/**
 * Digest of a server pass: the probe digest, then every field of every
 * result (doubles as raw bits), so a change to the rates, the service
 * composition or the load pass shows, not just one to the chains.
 */
uint64_t
digestSims(uint64_t probeDigest, const std::vector<ssl::ServerSimResult> &sims)
{
    uint64_t h = fnvBits(util::fnv1a64_init, probeDigest);
    for (const auto &s : sims) {
        for (uint64_t v : {s.sessions, uint64_t{s.servers}, s.chainDigest})
            h = fnvBits(h, v);
        for (double v : {s.meanServiceCycles, s.meanSessionBytes,
                         s.meanRequests, s.resumedShare, s.handshakeFraction,
                         s.setupFraction, s.bulkFraction, s.otherFraction})
            h = fnvBits(h, v);
        for (const auto &pt : s.points)
            for (double v : {pt.loadFactor, pt.offeredPerGcycle,
                             pt.achievedPerGcycle, pt.utilization,
                             pt.p50Cycles, pt.p95Cycles, pt.p99Cycles,
                             pt.meanCycles})
                h = fnvBits(h, v);
    }
    return h;
}

/** runCells in pass @p pass's submission order, then toJson + digest. */
Pass
sweepPass(const Workload &wl, size_t pass, unsigned workers)
{
    Pass p;
    const auto order = submissionOrder(wl, pass);
    auto t = Clock::now();
    std::vector<SweepCell> submitted;
    submitted.reserve(wl.cells.size());
    for (size_t k : order)
        submitted.push_back(wl.cells[k]);
    auto results = driver::runCells(submitted, workers);
    p.results.resize(results.size());
    for (size_t k = 0; k < results.size(); k++)
        p.results[order[k]] = std::move(results[k]);
    digestResults(p);
    p.wall = secondsSince(t);
    return p;
}

/** Fig. 6 set-up estimate at the measured IPC (as server_scale). */
double
setupCycles(crypto::CipherId id, double ipc)
{
    uint64_t insts = crypto::cipherInfo(id).isStream
        ? crypto::makeStreamCipher(id)->setupOpEstimate()
        : crypto::makeBlockCipher(id)->setupOpEstimate();
    return static_cast<double>(insts) / (ipc > 0 ? ipc : 1.0);
}

ssl::ServerRates
baseRates(crypto::CipherId id, const std::string &model,
          const ssl::HandshakeOps &ops)
{
    ssl::SessionModelParams costs;
    ssl::ServerRates r;
    r.cipher = id;
    r.model = model;
    r.serverHandshakeCycles =
        static_cast<double>(ops.serverMulOps) * costs.cyclesPerWordMul;
    r.clientHandshakeCycles =
        static_cast<double>(ops.clientMulOps) * costs.cyclesPerWordMul;
    r.requestOverheadCycles = costs.requestOverheadCycles;
    r.perByteOverheadCycles = costs.perByteOverheadCycles;
    return r;
}

/**
 * ServerRates from the ssl_server probe results: the marginal slope
 * between the two probe lengths is cycles/byte, the intercept the
 * prologue. Empty when any probe failed.
 */
std::vector<ssl::ServerRates>
probeRates(const std::vector<SweepResult> &probes,
           const ssl::HandshakeOps &ops)
{
    std::vector<ssl::ServerRates> rates;
    for (size_t i = 0; i + 1 < probes.size(); i += 2) {
        const auto &lo = probes[i];
        const auto &hi = probes[i + 1];
        if (!lo.ok() || !hi.ok())
            return {};
        auto r = baseRates(lo.cipher, lo.model, ops);
        r.cyclesPerByte =
            static_cast<double>(hi.stats.cycles - lo.stats.cycles)
            / static_cast<double>(probe_hi - probe_lo);
        r.prologueCycles = static_cast<double>(lo.stats.cycles)
                         - r.cyclesPerByte * static_cast<double>(probe_lo);
        r.keySetupCycles = setupCycles(lo.cipher, hi.stats.ipc());
        rates.push_back(r);
    }
    return rates;
}

ssl::HandshakeOps
measureHandshake()
{
    return ssl::measureHandshakeOps(ssl::SessionModelParams{}.rsaBits);
}

/** Per-process state of the untraced run. */
struct Run
{
    double setupSeconds = 0;
    double setupSimMips = 0; ///< probe sweep insts / its wall (ssl_server)
    Pass setup;              ///< the set-up pass (ssl_server: the probes)
    std::vector<ssl::ServerRates> rates;
    std::vector<double> passWalls, cellsPerS, sessionsPerS, simMips;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t digest = 0;
    uint64_t instsRecorded = 0; ///< Σ over kernels of one recording each
    uint64_t cyclesTotal = 0;   ///< Σ SimStats.cycles of one pass
    size_t passes = 0;
};

/** Σ instructions over one cell per (cipher, variant, bytes) kernel. */
uint64_t
recordedInsts(const std::vector<SweepResult> &results)
{
    std::map<std::tuple<int, int, size_t>, uint64_t> kernels;
    for (const auto &r : results)
        kernels[{static_cast<int>(r.cipher), static_cast<int>(r.variant),
                 r.bytes}] = r.stats.instructions;
    uint64_t n = 0;
    for (const auto &[k, insts] : kernels)
        n += insts;
    return n;
}

/** Fold one pass's outcome into the run: outputs checked here. */
void
account(Run &run, const Pass &p, size_t attempted, size_t ok)
{
    run.attempted += attempted + 1; // the cells plus the digest check
    run.failed += attempted - ok;
    if (run.passes == 0)
        run.digest = p.digest;
    else if (p.digest != run.digest) {
        run.failed++;
        std::fprintf(stderr, "digest mismatch: pass %zu %s != %s\n",
                     run.passes, hex64(p.digest).c_str(),
                     hex64(run.digest).c_str());
    }
    run.passes++;
}

/** The ssl_server timed part: runServerSims over the population. */
Pass
serverPass(const Workload &wl, const Run &run, unsigned workers)
{
    Pass p;
    auto t = Clock::now();
    std::vector<ssl::ServerSimResult> sims;
    try {
        sims = ssl::runServerSims(run.rates, wl.server, workers);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "runServerSims failed: %s\n", e.what());
    }
    p.ok = sims.size() == run.rates.size() ? sims.size() : 0;
    p.digest = digestSims(run.setup.digest, sims);
    p.wall = secondsSince(t);
    return p;
}

void
doSetup(const Workload &wl, Run &run, unsigned workers)
{
    auto t = Clock::now();
    if (!wl.ssl) {
        run.setup = sweepPass(wl, 0, workers);
        run.setupSeconds = secondsSince(t);
        account(run, run.setup, wl.cells.size(), run.setup.ok);
    } else {
        auto ops = measureHandshake();
        run.setup = sweepPass(wl, 0, workers);
        run.setupSimMips = static_cast<double>(run.setup.insts)
                         / run.setup.wall / 1e6;
        run.rates = probeRates(run.setup.results, ops);
        run.setupSeconds = secondsSince(t);
        // The probe digest seeds every server pass's digest; the set-up
        // itself is checked for ok cells only.
        run.attempted += wl.cells.size();
        run.failed += wl.cells.size() - run.setup.ok;
    }
    run.instsRecorded = recordedInsts(run.setup.results);
    run.cyclesTotal = run.setup.cycles;
}

void
timedPasses(const Workload &wl, Run &run, unsigned workers, double seconds)
{
    double elapsed = 0;
    for (size_t n = 0; n == 0 || elapsed < seconds; n++) {
        Pass p = wl.ssl ? serverPass(wl, run, workers)
                        : sweepPass(wl, n + 1, workers);
        elapsed += p.wall;
        size_t attempted = wl.ssl ? run.rates.size() : wl.cells.size();
        if (wl.ssl && run.rates.empty())
            attempted = 1; // the probes failed: nothing to simulate
        account(run, p, attempted, p.ok);
        run.passWalls.push_back(p.wall);
        run.cellsPerS.push_back(static_cast<double>(p.ok) / p.wall);
        if (wl.ssl) {
            run.sessionsPerS.push_back(
                static_cast<double>(p.ok * wl.server.sessions) / p.wall);
        } else {
            // Each sweep cell simulates one session at its length.
            run.sessionsPerS.push_back(static_cast<double>(p.ok) / p.wall);
            run.simMips.push_back(static_cast<double>(p.insts) / p.wall
                                  / 1e6);
        }
    }
}

// ------------------------------------------------------------------
// The traced run
// ------------------------------------------------------------------

const char *const record_phases[] = {"kernels.setup", "verify.gate",
                                     "isa.decode",    "isa.record",
                                     "verify.oracle", "isa.compress"};

/** Counts gathered by one traced sweep pass. */
struct TracedSweep
{
    int root = -1;
    Pass pass;
    uint64_t recordings = 0;
    uint64_t compressed = 0;
    uint64_t instsRecorded = 0;
    double storedMb = 0;
    double packedMb = 0;
    std::map<std::string, std::pair<uint64_t, double>> perCipher; ///< insts, s
};

/**
 * One sweep pass on this thread, group by group in submission order:
 * recordKernelTrace (its RecordTiming phases become child spans, in
 * the order the function runs them), one replay per model, toJson per
 * cell, and the reference processing of the group's session.
 */
TracedSweep
tracedSweep(const Workload &wl, size_t passIndex, Tracer &tr, int root)
{
    TracedSweep ts;
    ts.root = root;
    auto t = Clock::now();

    // Groups by (cipher, variant, bytes), in first-submission order.
    std::vector<std::vector<size_t>> groups;
    std::map<std::tuple<int, int, size_t>, size_t> groupOf;
    for (size_t k : submissionOrder(wl, passIndex)) {
        const auto &c = wl.cells[k];
        auto key = std::make_tuple(static_cast<int>(c.cipher),
                                   static_cast<int>(c.variant), c.bytes);
        auto [it, fresh] = groupOf.try_emplace(key, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(k);
    }

    ts.pass.results.resize(wl.cells.size());
    for (const auto &group : groups) {
        const SweepCell &first = wl.cells[group.front()];
        const int cellId = static_cast<int>(group.front());
        for (size_t k : group) {
            auto &r = ts.pass.results[k];
            r.cipher = wl.cells[k].cipher;
            r.variant = wl.cells[k].variant;
            r.model = wl.cells[k].model.name;
            r.bytes = wl.cells[k].bytes;
        }

        driver::RecordTiming timing;
        driver::RecordedTrace trace;
        int rec = tr.open("driver.record", ts.root, cellId);
        try {
            trace = driver::recordKernelTrace(
                first.cipher, first.variant, first.bytes,
                kernels::KernelDirection::Encrypt, &timing);
        } catch (const std::exception &e) {
            tr.close(rec);
            for (size_t k : group) {
                ts.pass.results[k].outcome = driver::CellOutcome::Error;
                ts.pass.results[k].message = e.what();
            }
            continue;
        }
        tr.close(rec);
        const double phases[] = {timing.setupSeconds,  timing.gateSeconds,
                                 timing.decodeSeconds, timing.recordSeconds,
                                 timing.verifySeconds,
                                 timing.compressSeconds};
        double at = tr.all()[rec].start;
        for (size_t i = 0; i < std::size(phases); i++) {
            tr.add(record_phases[i], at, at + phases[i], rec, cellId);
            at += phases[i];
        }
        ts.recordings++;
        ts.compressed += trace.isCompressed() ? 1 : 0;
        ts.instsRecorded += trace.instructions();
        ts.storedMb += static_cast<double>(trace.storedBytes()) / 1e6;
        ts.packedMb += static_cast<double>(trace.packedEquivalentBytes())
                     / 1e6;

        const std::string cipher = crypto::cipherInfo(first.cipher).name;
        for (size_t k : group) {
            int s = tr.open("sim.replay", ts.root, static_cast<int>(k));
            ts.pass.results[k].stats = trace.replay(wl.cells[k].model);
            tr.close(s);
            auto &pc = ts.perCipher[cipher];
            pc.first += ts.pass.results[k].stats.instructions;
            pc.second += tr.all()[s].end - tr.all()[s].start;
        }
        for (size_t k : group) {
            int s = tr.open("driver.json", ts.root, static_cast<int>(k));
            driver::toJson(ts.pass.results[k].stats);
            tr.close(s);
        }

        auto session = driver::makeWorkload(first.cipher, first.bytes);
        int ref = tr.open("crypto.reference", ts.root, cellId);
        auto out = verify::referenceProcess(
            first.cipher, session.key, session.iv, session.plaintext,
            kernels::KernelDirection::Encrypt);
        tr.close(ref);
        if (out.size() != session.plaintext.size())
            throw std::runtime_error("reference output has the wrong size");
    }
    digestResults(ts.pass);
    ts.pass.wall = secondsSince(t);
    return ts;
}

/** ns per byte of CBC encryption (RC4: keystream) of 64 KB, median of 5. */
double
cipherNsPerByte(crypto::CipherId id, Tracer &tr, int root)
{
    auto session = driver::makeWorkload(id, 64 << 10);
    std::vector<uint8_t> buf = session.plaintext;
    std::vector<double> times;
    const std::string name = "crypto.cipher." + crypto::cipherInfo(id).name;
    for (int rep = 0; rep < 5; rep++) {
        int s = tr.open(name, root);
        if (crypto::cipherInfo(id).isStream) {
            auto c = crypto::makeStreamCipher(id);
            c->setKey(session.key);
            c->process(buf.data(), buf.data(), buf.size());
        } else {
            auto c = crypto::makeBlockCipher(id);
            c->setKey(session.key);
            const size_t bs = c->info().blockBytes;
            std::vector<uint8_t> chain(session.iv.begin(),
                                       session.iv.begin() + bs);
            for (size_t off = 0; off + bs <= buf.size(); off += bs) {
                for (size_t i = 0; i < bs; i++)
                    buf[off + i] ^= chain[i];
                c->encryptBlock(&buf[off], &buf[off]);
                std::copy_n(&buf[off], bs, chain.begin());
            }
        }
        tr.close(s);
        times.push_back(tr.all()[s].end - tr.all()[s].start);
    }
    return median(times) * 1e9 / static_cast<double>(buf.size());
}

/** Per-cell runServerSim on this thread; returns each result. */
std::vector<ssl::ServerSimResult>
tracedServerSims(const std::vector<ssl::ServerRates> &rates,
                 const ssl::ServerSimParams &params, Tracer &tr, int root)
{
    std::vector<ssl::ServerSimResult> out;
    for (size_t i = 0; i < rates.size(); i++) {
        int s = tr.open("ssl.server_sim", root, static_cast<int>(i));
        out.push_back(ssl::runServerSim(rates[i], params));
        tr.close(s);
    }
    return out;
}

struct TraceReport
{
    JsonObject metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string summary; ///< the run's own figures (JSON object)
};

void
check(TraceReport &rep, bool ok, const std::string &what)
{
    rep.attempted++;
    if (!ok) {
        rep.failed++;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
}

void
metric(TraceReport &rep, const std::string &name, double value,
       const std::string &unit)
{
    rep.metrics.raw(name, JsonObject().num("value", value)
                              .str("unit", unit).text());
}

TraceReport
tracedRun(const Workload &wl, unsigned workers, const std::string &out)
{
    Tracer tr;
    TraceReport rep;
    // Gates run on first use in a process, so their counts and time are
    // taken over the whole traced run.
    const uint64_t checks0 = driver::backendGateChecks();
    const uint64_t fallbacks0 = driver::backendGateFallbacks();

    // Set-up, then one timed pass, mirroring the untraced run. The
    // sweep layers are reported from the last sweep pass: the warm
    // timed pass on the sweep workloads, the probe sweep on ssl_server.
    TracedSweep setup, timed;
    double handshakeS = 0;
    ssl::HandshakeOps ops;
    std::vector<ssl::ServerRates> rates;
    int simRoot = -1;
    int root = tr.open("run.setup", -1);
    if (!wl.ssl) {
        setup = tracedSweep(wl, 0, tr, root);
        tr.close(root);
        root = tr.open("run.pass", -1);
        timed = tracedSweep(wl, 1, tr, root);
        tr.close(root);
        check(rep, setup.pass.digest == timed.pass.digest,
              "traced passes give the same stats digest");
    } else {
        int hs = tr.open("ssl.handshake", root);
        ops = measureHandshake();
        tr.close(hs);
        handshakeS = tr.all()[hs].end - tr.all()[hs].start;
        setup = tracedSweep(wl, 0, tr, root);
        tr.close(root);
        timed = setup;
        rates = probeRates(setup.pass.results, ops);
        simRoot = tr.open("run.pass", -1);
    }
    for (const auto &r : timed.pass.results)
        check(rep, r.ok(), "cell ok");

    // Untraced passes: on one thread (the tracing overhead is the
    // traced pass's wall minus this one's) and on the run's workers
    // (the wall the parallel efficiency divides by).
    double serialS = 0, tracedWall = 0, serialWall = 0, parallelWall = 0;
    uint64_t digest = timed.pass.digest;
    if (!wl.ssl) {
        for (const char *layer : {"driver.record", "sim.replay",
                                  "driver.json"})
            serialS += tr.total(layer, timed.root);
        tracedWall = timed.pass.wall;
        for (unsigned threads : {1u, workers}) {
            Pass p = sweepPass(wl, 1, threads);
            (threads == 1 ? serialWall : parallelWall) = p.wall;
            check(rep, p.digest == digest,
                  "traced and untraced passes give the same stats digest");
        }
    } else {
        auto t = Clock::now();
        auto sims = tracedServerSims(rates, wl.server, tr, simRoot);
        tracedWall = secondsSince(t);
        tr.close(simRoot);
        serialS = tr.total("ssl.server_sim", simRoot);
        digest = digestSims(setup.pass.digest, sims);
        check(rep, sims.size() == rates.size() && !sims.empty(),
              "server simulations ran");
        for (unsigned threads : {1u, workers}) {
            t = Clock::now();
            auto par = ssl::runServerSims(rates, wl.server, threads);
            (threads == 1 ? serialWall : parallelWall) = secondsSince(t);
            check(rep, digestSims(setup.pass.digest, par) == digest,
                  "traced and untraced server results agree");
        }
    }

    // Direct calls: pi, the reference ciphers and the ssl functions.
    int probes = tr.open("run.probes", -1);
    std::vector<double> piTimes;
    for (int rep3 = 0; rep3 < 3; rep3++) {
        int s = tr.open("util.pi", probes);
        auto words = util::piFractionWords(1042);
        tr.close(s);
        piTimes.push_back(tr.all()[s].end - tr.all()[s].start);
        check(rep, words.size() == 1042 && words[0] == 0x243F6A88u,
              "pi words");
    }
    std::map<std::string, double> nsPerByte;
    for (auto id : ssl_ciphers)
        nsPerByte[crypto::cipherInfo(id).name] =
            cipherNsPerByte(id, tr, probes);
    if (!wl.ssl) {
        // The sweep workloads exercise the ssl layer on a small
        // population, with rates from this pass's 4W cells.
        int hs = tr.open("ssl.handshake", probes);
        ops = measureHandshake();
        tr.close(hs);
        handshakeS = tr.all()[hs].end - tr.all()[hs].start;
        for (auto id : ssl_ciphers) {
            for (const auto &r : timed.pass.results) {
                if (r.cipher != id || r.model != "4W" || !r.ok())
                    continue;
                auto rt = baseRates(id, r.model, ops);
                rt.cyclesPerByte = static_cast<double>(r.stats.cycles)
                                 / static_cast<double>(r.bytes);
                rt.keySetupCycles = setupCycles(id, r.stats.ipc());
                rates.push_back(rt);
                break;
            }
        }
        ssl::ServerSimParams small;
        small.sessions = 20000;
        auto sims = tracedServerSims(rates, small, tr, probes);
        simRoot = probes;
        check(rep, sims.size() == ssl_ciphers.size(),
              "ssl probe rates found");
    }
    tr.close(probes);

    // Span checks: children inside parents, self time within wall.
    const auto &spans = tr.all();
    bool nested = true;
    double rootWall = 0, covered = 0, selfSum = 0;
    auto self = tr.selfTimes();
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        if (s.parent < 0) {
            rootWall += s.end - s.start;
            continue;
        }
        const Span &p = spans[s.parent];
        nested = nested && s.start >= p.start && s.end <= p.end;
        selfSum += self[i];
        if (spans[s.parent].parent < 0)
            covered += s.end - s.start;
    }
    check(rep, nested, "no child span outlasts its parent");
    check(rep, selfSum <= rootWall, "layer self time within traced wall");
    const double coverage = covered / rootWall;
    check(rep, coverage >= 0.9, "layer spans cover 90% of traced wall");

    // Sweep-layer metrics from the last sweep pass.
    const int r = timed.root;
    std::vector<double> replayMs;
    for (double d : tr.durations("sim.replay", r))
        replayMs.push_back(d * 1e3);
    const double replayS = tr.total("sim.replay", r);
    uint64_t replayed = 0;
    for (const auto &res : timed.pass.results)
        replayed += res.stats.instructions;
    std::vector<double> simS = tr.durations("ssl.server_sim", simRoot);

    metric(rep, "util.pi_s", median(piTimes), "s");
    metric(rep, "kernels.setup_s", tr.total("kernels.setup", r), "s");
    metric(rep, "isa.record_s",
           tr.total("isa.record", r) + tr.total("isa.decode", r), "s");
    metric(rep, "isa.insts_recorded",
           static_cast<double>(timed.instsRecorded), "count");
    metric(rep, "isa.compress_s", tr.total("isa.compress", r), "s");
    metric(rep, "isa.compress_accept_ratio",
           timed.recordings ? static_cast<double>(timed.compressed)
                                  / static_cast<double>(timed.recordings)
                            : 0,
           "ratio");
    metric(rep, "isa.trace_stored_mb", timed.storedMb, "MB");
    metric(rep, "isa.trace_packed_mb", timed.packedMb, "MB");
    double gateS = 0;
    for (const auto &s : spans)
        if (s.name == "verify.gate")
            gateS += s.end - s.start;
    metric(rep, "verify.gate_s", gateS, "s");
    metric(rep, "verify.gate_checks",
           static_cast<double>(driver::backendGateChecks() - checks0),
           "count");
    metric(rep, "verify.gate_fallbacks",
           static_cast<double>(driver::backendGateFallbacks() - fallbacks0),
           "count");
    metric(rep, "verify.oracle_s", tr.total("verify.oracle", r), "s");
    metric(rep, "crypto.reference_s", tr.total("crypto.reference", r), "s");
    for (const auto &[name, ns] : nsPerByte)
        metric(rep, "crypto.ns_per_byte." + name, ns, "ns/B");
    metric(rep, "sim.replay_s", replayS, "s");
    metric(rep, "sim.insts_replayed", static_cast<double>(replayed),
           "count");
    metric(rep, "sim.replay_mips",
           replayS > 0 ? static_cast<double>(replayed) / replayS / 1e6 : 0,
           "Minsts/s");
    for (auto id : ssl_ciphers) {
        const auto &name = crypto::cipherInfo(id).name;
        auto it = timed.perCipher.find(name);
        double mips = it != timed.perCipher.end() && it->second.second > 0
            ? static_cast<double>(it->second.first) / it->second.second
                  / 1e6
            : 0;
        metric(rep, "sim.replay_mips." + name, mips, "Minsts/s");
    }
    metric(rep, "sim.replay_cell_ms_p50", median(replayMs), "ms");
    metric(rep, "sim.replay_cell_ms_tail", tail(replayMs), "ms");
    metric(rep, "sim.replay_cells", static_cast<double>(replayMs.size()),
           "count");
    metric(rep, "sim.cycles_total", static_cast<double>(timed.pass.cycles),
           "count");
    metric(rep, "driver.json_s", tr.total("driver.json", r), "s");
    metric(rep, "driver.parallel_efficiency",
           parallelWall > 0 ? serialS / (parallelWall * workers) : 0,
           "ratio");
    metric(rep, "ssl.handshake_s", handshakeS, "s");
    metric(rep, "ssl.server_sim_s_p50", median(simS), "s");
    metric(rep, "ssl.server_sim_s_tail", tail(simS), "s");
    metric(rep, "ssl.server_sims", static_cast<double>(simS.size()),
           "count");

    rep.summary =
        JsonObject()
            .num("traced_wall_s", rootWall)
            .num("layer_self_s", selfSum)
            .num("span_coverage", coverage)
            .num("spans", static_cast<double>(spans.size()))
            .num("traced_pass_s", tracedWall)
            .num("untraced_pass_s", serialWall)
            .num("overhead_s", tracedWall - serialWall)
            .str("digest", hex64(digest))
            .num("insts_recorded", static_cast<double>(timed.instsRecorded))
            .num("cycles_total", static_cast<double>(timed.pass.cycles))
            .text();
    if (!out.empty() && !tr.write(out)) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        rep.attempted++;
        rep.failed++;
    }
    return rep;
}

// ------------------------------------------------------------------

const char *
backendName(driver::ExecBackendSelection s)
{
    switch (s) {
      case driver::ExecBackendSelection::Interpreter: return "interpreter";
      case driver::ExecBackendSelection::Threaded: return "threaded";
      case driver::ExecBackendSelection::Auto: return "auto";
    }
    return "?";
}

const char *
compressionName(driver::TraceCompression c)
{
    switch (c) {
      case driver::TraceCompression::Off: return "off";
      case driver::TraceCompression::Auto: return "auto";
      case driver::TraceCompression::On: return "on";
    }
    return "?";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_grids|long_sessions|"
                 "ssl_server --mode run|trace --seed N [--seconds S] "
                 "[--process I] [--smoke] [--trace-out PATH]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, mode, traceOut;
    uint64_t seed = 0;
    double seconds = 10;
    const unsigned workers =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    unsigned process = 0;
    bool smoke = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        bool more = i + 1 < argc;
        if (a == "--workload" && more)
            workload = argv[++i];
        else if (a == "--mode" && more)
            mode = argv[++i];
        else if (a == "--seed" && more)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && more)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--process" && more)
            process = static_cast<unsigned>(std::strtoul(argv[++i],
                                                         nullptr, 10));
        else if (a == "--trace-out" && more)
            traceOut = argv[++i];
        else if (a == "--smoke")
            smoke = true;
        else
            return usage();
    }
    if (workload.empty() || (mode != "run" && mode != "trace"))
        return usage();

    // Default configuration only: a stray knob would make two runs
    // measure different programs.
    for (char **e = environ; *e; e++) {
        if (!std::strncmp(*e, "CRYPTARCH_", 10)) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         *e);
            return 2;
        }
    }

    try {
        Workload wl = makeWorkloadSpec(workload, seed, smoke);
        wl.process = process;
        JsonObject out;
        out.str("workload", workload)
            .str("mode", mode)
            .num("seed", static_cast<double>(seed))
            .str("backend", backendName(driver::execBackendSelection()))
            .str("compression", compressionName(driver::traceCompression()))
            .str("isolation",
                 driver::sweepOptionsFromEnv().isolation
                         == driver::SweepIsolation::Thread
                     ? "thread"
                     : "process")
            .num("workers", workers)
            .num("cells", static_cast<double>(wl.cells.size()));

        if (mode == "trace") {
            TraceReport rep = tracedRun(wl, workers, traceOut);
            out.num("attempted", static_cast<double>(rep.attempted))
                .num("failed", static_cast<double>(rep.failed))
                .raw("trace", rep.summary)
                .raw("metrics", rep.metrics.text());
        } else {
            Run run;
            doSetup(wl, run, workers);
            timedPasses(wl, run, workers, seconds);
            out.num("setup_s", run.setupSeconds)
                .num("setup_sim_mips", run.setupSimMips)
                .raw("pass_walls", numList(run.passWalls))
                .raw("cells_per_s", numList(run.cellsPerS))
                .raw("sessions_per_s", numList(run.sessionsPerS))
                .raw("sim_mips", numList(run.simMips))
                .num("peak_rss_mb", peakRssMb())
                .num("attempted", static_cast<double>(run.attempted))
                .num("failed", static_cast<double>(run.failed))
                .str("setup_digest", hex64(run.setup.digest))
                .str("digest", hex64(run.digest))
                .num("insts_recorded",
                     static_cast<double>(run.instsRecorded))
                .num("cycles_total", static_cast<double>(run.cyclesTotal));
        }
        std::printf("%s\n", out.text().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
