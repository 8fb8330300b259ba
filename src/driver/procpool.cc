#include "driver/procpool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/cell_exec.hh"
#include "util/checksum.hh"
#include "util/parallel.hh"

namespace cryptarch::driver
{

const char *
journalErrorKindName(JournalErrorKind kind)
{
    switch (kind) {
      case JournalErrorKind::BadMagic: return "bad-magic";
      case JournalErrorKind::BadVersion: return "bad-version";
      case JournalErrorKind::GridMismatch: return "grid-mismatch";
      case JournalErrorKind::Truncated: return "truncated";
      case JournalErrorKind::BadChecksum: return "bad-checksum";
      case JournalErrorKind::Inconsistent: return "inconsistent";
      case JournalErrorKind::Io: return "io";
    }
    return "?";
}

namespace
{

// ---------------------------------------------------------------------
// Little-endian byte codec shared by the result payload, the pipe
// frames, and the journal.

void
putU16(std::vector<uint8_t> &b, uint16_t v)
{
    b.push_back(static_cast<uint8_t>(v));
    b.push_back(static_cast<uint8_t>(v >> 8));
}

void
putU32(std::vector<uint8_t> &b, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &b, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        b.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putString(std::vector<uint8_t> &b, const std::string &s)
{
    putU32(b, static_cast<uint32_t>(s.size()));
    b.insert(b.end(), s.begin(), s.end());
}

uint32_t
loadU32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; i++)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
loadU64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Longest string the payload codec accepts (error messages). */
constexpr uint32_t max_string_bytes = 1u << 20;

/** Result payload codec version (bumped with SimStats changes). */
constexpr uint16_t payload_version = 1;

/** Bounds-checked sequential payload reader. */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const uint8_t> bytes) : s(bytes) {}

    uint8_t
    getU8(const char *what)
    {
        need(1, what);
        return s[pos++];
    }

    uint16_t
    getU16(const char *what)
    {
        need(2, what);
        auto v = static_cast<uint16_t>(s[pos] | (s[pos + 1] << 8));
        pos += 2;
        return v;
    }

    uint32_t
    getU32(const char *what)
    {
        need(4, what);
        uint32_t v = loadU32(s.data() + pos);
        pos += 4;
        return v;
    }

    uint64_t
    getU64(const char *what)
    {
        need(8, what);
        uint64_t v = loadU64(s.data() + pos);
        pos += 8;
        return v;
    }

    std::string
    getString(const char *what)
    {
        uint32_t len = getU32(what);
        if (len > max_string_bytes)
            throw JournalError(JournalErrorKind::Inconsistent,
                               std::string("impossible string length in ")
                                   + what);
        need(len, what);
        std::string out(reinterpret_cast<const char *>(s.data() + pos), len);
        pos += len;
        return out;
    }

    bool done() const { return pos == s.size(); }

  private:
    void
    need(size_t n, const char *what)
    {
        if (s.size() - pos < n)
            throw JournalError(JournalErrorKind::Truncated,
                               std::string("payload cut short reading ")
                                   + what);
    }

    std::span<const uint8_t> s;
    size_t pos = 0;
};

// ---------------------------------------------------------------------
// Full-buffer pipe/file I/O (EINTR-safe).

bool
writeFull(int fd, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    while (n) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** False on EOF or error before @p n bytes arrive. */
bool
readFull(int fd, void *data, size_t n)
{
    auto *p = static_cast<uint8_t *>(data);
    while (n) {
        ssize_t r = ::read(fd, p, n);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (r == 0)
            return false;
        p += r;
        n -= static_cast<size_t>(r);
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// Result payload codec.

std::vector<uint8_t>
serializeResultPayload(const SweepResult &r)
{
    std::vector<uint8_t> b;
    b.reserve(512 + r.message.size());
    putU16(b, payload_version);
    b.push_back(static_cast<uint8_t>(r.outcome));
    putU32(b, static_cast<uint32_t>(r.worker));
    putString(b, r.message);

    const sim::SimStats &st = r.stats;
    putString(b, st.model);
    putU64(b, st.instructions);
    putU64(b, st.cycles);
    putU64(b, st.condBranches);
    putU64(b, st.mispredicts);
    putU64(b, st.loads);
    putU64(b, st.stores);
    putU64(b, st.sboxAccesses);
    putU64(b, st.sboxCacheHits);
    putU64(b, st.sboxCacheAccesses);
    putU64(b, st.sboxCacheMisses);
    putU32(b, static_cast<uint32_t>(st.sboxCaches.size()));
    for (const auto &c : st.sboxCaches) {
        putU64(b, c.accesses);
        putU64(b, c.misses);
    }
    for (const sim::CacheStats *c : {&st.l1, &st.l2, &st.tlb}) {
        putU64(b, c->accesses);
        putU64(b, c->misses);
    }
    putU32(b, static_cast<uint32_t>(st.classCounts.size()));
    for (uint64_t v : st.classCounts)
        putU64(b, v);
    putU32(b, static_cast<uint32_t>(sim::num_stall_causes));
    for (uint64_t v : st.stallCycles)
        putU64(b, v);
    for (const auto &perClass : st.stallByClass)
        for (uint64_t v : perClass)
            putU64(b, v);
    return b;
}

void
deserializeResultPayload(std::span<const uint8_t> payload, SweepResult &r)
{
    ByteReader in(payload);
    if (in.getU16("version") != payload_version)
        throw JournalError(JournalErrorKind::BadVersion,
                           "unknown result payload version");
    const uint8_t outcome = in.getU8("outcome");
    if (outcome >= num_cell_outcomes)
        throw JournalError(JournalErrorKind::Inconsistent,
                           "impossible cell outcome");
    const auto worker = static_cast<int32_t>(in.getU32("worker"));
    std::string message = in.getString("message");

    sim::SimStats st;
    st.model = in.getString("stats model");
    st.instructions = in.getU64("instructions");
    st.cycles = in.getU64("cycles");
    st.condBranches = in.getU64("cond branches");
    st.mispredicts = in.getU64("mispredicts");
    st.loads = in.getU64("loads");
    st.stores = in.getU64("stores");
    st.sboxAccesses = in.getU64("sbox accesses");
    st.sboxCacheHits = in.getU64("sbox cache hits");
    st.sboxCacheAccesses = in.getU64("sbox cache accesses");
    st.sboxCacheMisses = in.getU64("sbox cache misses");
    const uint32_t nSbox = in.getU32("sbox cache count");
    if (nSbox > 4096)
        throw JournalError(JournalErrorKind::Inconsistent,
                           "impossible SBox cache count");
    st.sboxCaches.resize(nSbox);
    for (auto &c : st.sboxCaches) {
        c.accesses = in.getU64("sbox cache accesses[i]");
        c.misses = in.getU64("sbox cache misses[i]");
    }
    for (sim::CacheStats *c : {&st.l1, &st.l2, &st.tlb}) {
        c->accesses = in.getU64("cache accesses");
        c->misses = in.getU64("cache misses");
    }
    if (in.getU32("op-class count") != isa::num_op_classes)
        throw JournalError(JournalErrorKind::Inconsistent,
                           "op-class count mismatch (foreign build?)");
    for (auto &v : st.classCounts)
        v = in.getU64("class count");
    if (in.getU32("stall-cause count") != sim::num_stall_causes)
        throw JournalError(JournalErrorKind::Inconsistent,
                           "stall-cause count mismatch (foreign build?)");
    for (auto &v : st.stallCycles)
        v = in.getU64("stall cycles");
    for (auto &perClass : st.stallByClass)
        for (auto &v : perClass)
            v = in.getU64("per-class stall cycles");
    if (!in.done())
        throw JournalError(JournalErrorKind::Inconsistent,
                           "trailing bytes after payload");

    r.outcome = static_cast<CellOutcome>(outcome);
    r.worker = worker;
    r.message = std::move(message);
    r.stats = std::move(st);
}

uint64_t
gridFingerprint(const std::vector<SweepCell> &cells)
{
    std::vector<uint8_t> b;
    b.reserve(32 * cells.size() + 8);
    putU64(b, cells.size());
    for (const auto &cell : cells) {
        putU32(b, static_cast<uint32_t>(cell.cipher));
        putU32(b, static_cast<uint32_t>(cell.variant));
        putU64(b, cell.bytes);
        putString(b, cell.model.name);
    }
    return util::fnv1a64(b.data(), b.size());
}

// ---------------------------------------------------------------------
// Checkpoint journal.

namespace
{

/** Journal header: magic, version, grid fingerprint, cell count. */
constexpr size_t journal_header_bytes = 4 + 4 + 8 + 8;
/** Per-record framing: index, payload length, trailing checksum. */
constexpr size_t record_overhead_bytes = 4 + 4 + 8;

std::vector<uint8_t>
journalHeader(uint64_t fingerprint, uint64_t cellCount)
{
    std::vector<uint8_t> b;
    b.reserve(journal_header_bytes);
    putU32(b, SweepJournal::magic);
    putU32(b, SweepJournal::version);
    putU64(b, fingerprint);
    putU64(b, cellCount);
    return b;
}

} // namespace

SweepJournal::~SweepJournal()
{
    close();
}

void
SweepJournal::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

void
SweepJournal::open(const std::string &path, uint64_t fingerprint,
                   uint64_t cellCount)
{
    close();
    loaded_.clear();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0)
        throw JournalError(JournalErrorKind::Io, "cannot open " + path + ": "
                                                     + std::strerror(errno));
    auto fail = [&](JournalErrorKind kind,
                    const std::string &detail) -> void {
        close();
        loaded_.clear();
        throw JournalError(kind, detail);
    };

    // Journals are one small record per cell: read whole, then parse.
    std::vector<uint8_t> data;
    uint8_t chunk[65536];
    for (;;) {
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail(JournalErrorKind::Io,
                 std::string("read failed: ") + std::strerror(errno));
        }
        if (n == 0)
            break;
        data.insert(data.end(), chunk, chunk + n);
    }

    if (data.empty()) {
        // Missing or empty file: a fresh journal.
        auto header = journalHeader(fingerprint, cellCount);
        if (!writeFull(fd_, header.data(), header.size()))
            fail(JournalErrorKind::Io, "cannot write journal header");
        return;
    }

    if (data.size() < journal_header_bytes)
        fail(JournalErrorKind::Truncated, "header cut short");
    if (loadU32(&data[0]) != magic)
        fail(JournalErrorKind::BadMagic, "not a sweep journal");
    if (loadU32(&data[4]) != version)
        fail(JournalErrorKind::BadVersion, "unknown journal version");
    if (loadU64(&data[8]) != fingerprint || loadU64(&data[16]) != cellCount)
        fail(JournalErrorKind::GridMismatch,
             "journal belongs to a different sweep grid");

    std::vector<char> seen(cellCount, 0);
    size_t off = journal_header_bytes;
    while (data.size() - off >= record_overhead_bytes) {
        const uint8_t *rec = data.data() + off;
        const uint32_t index = loadU32(rec);
        const uint32_t len = loadU32(rec + 4);
        if (len > max_payload)
            fail(JournalErrorKind::Inconsistent, "impossible record length");
        if (data.size() - off < record_overhead_bytes + len)
            break; // partial trailing record: the SIGKILL-mid-append case
        const uint64_t sum = util::fnv1a64(rec, 8 + len);
        if (sum != loadU64(rec + 8 + len))
            fail(JournalErrorKind::BadChecksum, "record checksum mismatch");
        if (index >= cellCount)
            fail(JournalErrorKind::Inconsistent, "record index out of range");
        if (seen[index])
            fail(JournalErrorKind::Inconsistent, "duplicate cell record");
        seen[index] = 1;
        loaded_.emplace_back(index,
                             std::vector<uint8_t>(rec + 8, rec + 8 + len));
        off += record_overhead_bytes + len;
    }

    // Drop the partial tail (if any) so appends start on a record
    // boundary, then position at the end.
    if (off < data.size() && ::ftruncate(fd_, static_cast<off_t>(off)) != 0)
        fail(JournalErrorKind::Io, "cannot truncate partial record");
    if (::lseek(fd_, 0, SEEK_END) < 0)
        fail(JournalErrorKind::Io, "seek failed");
}

void
SweepJournal::openFresh(const std::string &path, uint64_t fingerprint,
                        uint64_t cellCount)
{
    close();
    loaded_.clear();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0)
        throw JournalError(JournalErrorKind::Io, "cannot open " + path + ": "
                                                     + std::strerror(errno));
    auto header = journalHeader(fingerprint, cellCount);
    if (!writeFull(fd_, header.data(), header.size())) {
        close();
        throw JournalError(JournalErrorKind::Io,
                           "cannot write journal header");
    }
}

void
SweepJournal::append(uint32_t index, std::span<const uint8_t> payload)
{
    if (fd_ < 0)
        return;
    std::vector<uint8_t> rec;
    rec.reserve(record_overhead_bytes + payload.size());
    putU32(rec, index);
    putU32(rec, static_cast<uint32_t>(payload.size()));
    rec.insert(rec.end(), payload.begin(), payload.end());
    putU64(rec, util::fnv1a64(rec.data(), rec.size()));
    // One write per record: a kill can only sever the trailing record,
    // which open() tolerates and truncates away.
    if (!writeFull(fd_, rec.data(), rec.size()))
        throw JournalError(JournalErrorKind::Io,
                           std::string("append failed: ")
                               + std::strerror(errno));
}

// ---------------------------------------------------------------------
// Chaos fault points.

std::vector<ChaosPoint>
parseChaosSpec(std::string_view spec)
{
    std::vector<ChaosPoint> points;
    for (size_t pos = 0; pos < spec.size();) {
        size_t end = spec.find(';', pos);
        if (end == std::string_view::npos)
            end = spec.size();
        const std::string_view tok = spec.substr(pos, end - pos);
        pos = end + 1;
        const size_t at = tok.find('@');
        if (at == std::string_view::npos)
            continue;
        const std::string_view action = tok.substr(0, at);
        const std::string_view target = tok.substr(at + 1);
        const size_t s1 = target.find('/');
        if (s1 == std::string_view::npos)
            continue;
        const size_t s2 = target.find('/', s1 + 1);
        if (s2 == std::string_view::npos)
            continue;
        ChaosPoint p;
        if (action == "crash")
            p.action = ChaosAction::Crash;
        else if (action == "abort")
            p.action = ChaosAction::Abort;
        else if (action == "exit")
            p.action = ChaosAction::Exit;
        else if (action == "hang")
            p.action = ChaosAction::Hang;
        else
            continue; // malformed points are dropped, not fatal
        p.cipher = std::string(target.substr(0, s1));
        p.variant = std::string(target.substr(s1 + 1, s2 - s1 - 1));
        p.model = std::string(target.substr(s2 + 1));
        points.push_back(std::move(p));
    }
    return points;
}

ChaosAction
chaosActionFor(const std::vector<ChaosPoint> &points, const SweepCell &cell)
{
    if (points.empty())
        return ChaosAction::None;
    const std::string &cipher = crypto::cipherInfo(cell.cipher).name;
    const std::string variant = kernels::variantName(cell.variant);
    for (const auto &p : points)
        if (p.cipher == cipher && p.variant == variant
            && p.model == cell.model.name)
            return p.action;
    return ChaosAction::None;
}

namespace
{

/** Fire a chaos fault point. Returns only for None. */
void
applyChaos(ChaosAction action)
{
    switch (action) {
      case ChaosAction::None:
        return;
      case ChaosAction::Crash:
        ::raise(SIGSEGV);
        ::_exit(99); // sanitizers may turn the signal into an exit
      case ChaosAction::Abort:
        std::abort();
      case ChaosAction::Exit:
        ::_exit(3);
      case ChaosAction::Hang:
        for (;;)
            ::pause(); // watchdog food; SIGKILL is the only way out
    }
}

// ---------------------------------------------------------------------
// Pipe protocol.

constexpr uint32_t cmd_magic = 0x42575343; // "CSWB" little-endian
constexpr uint32_t res_magic = 0x52575343; // "CSWR" little-endian
/** Result frame header: magic, cell index, payload length, checksum. */
constexpr size_t res_header_bytes = 4 + 4 + 4 + 8;

/**
 * Worker process main loop: claim batches from the command pipe, run
 * each cell (chaos hook first), stream back one checksummed result
 * frame per cell. Exits on command-pipe EOF (orderly shutdown), a
 * malformed command, or a dead parent.
 */
[[noreturn]] void
workerMain(int cmdFd, int resFd, const std::vector<SweepCell> &cells)
{
    const char *chaosEnv = std::getenv("CRYPTARCH_SWEEP_CHAOS");
    const auto chaos = parseChaosSpec(chaosEnv ? chaosEnv : "");

    for (;;) {
        uint8_t hdr[8];
        if (!readFull(cmdFd, hdr, sizeof(hdr)))
            break; // EOF: orderly shutdown
        if (loadU32(hdr) != cmd_magic)
            ::_exit(4);
        const uint32_t count = loadU32(hdr + 4);
        if (count == 0 || count > cells.size())
            ::_exit(4);
        std::vector<uint8_t> raw(size_t{count} * 4);
        if (!readFull(cmdFd, raw.data(), raw.size()))
            break;

        // Batches are group-aligned: one TraceGroup records the
        // kernel once, every cell of the batch replays it.
        detail::TraceGroup group;
        for (uint32_t k = 0; k < count; k++) {
            const uint32_t idx = loadU32(&raw[size_t{k} * 4]);
            if (idx >= cells.size())
                ::_exit(4);
            const SweepCell &cell = cells[idx];
            applyChaos(chaosActionFor(chaos, cell));
            SweepResult r = detail::makeResultShell(cell);
            detail::executeCell(cell, group, r);

            const auto payload = serializeResultPayload(r);
            std::vector<uint8_t> frame;
            frame.reserve(res_header_bytes + payload.size());
            putU32(frame, res_magic);
            putU32(frame, idx);
            putU32(frame, static_cast<uint32_t>(payload.size()));
            uint64_t sum = util::fnv1a64(frame.data() + 4, 8);
            sum = util::fnv1a64(payload.data(), payload.size(), sum);
            putU64(frame, sum);
            frame.insert(frame.end(), payload.begin(), payload.end());
            if (!writeFull(resFd, frame.data(), frame.size()))
                ::_exit(0); // parent went away
        }
    }
    ::_exit(0);
}

/** Parent-side state of one worker slot. */
struct WorkerProc
{
    pid_t pid = -1;
    int cmdFd = -1;
    int resFd = -1;
    bool alive = false;
    std::vector<uint32_t> batch;
    size_t got = 0; ///< results received for the current batch
    std::chrono::steady_clock::time_point deadline{};
    std::vector<uint8_t> buf; ///< unparsed result-pipe bytes

    bool busy() const { return alive && got < batch.size(); }
};

/** Fork a worker into slot @p w. The child closes the other slots'
 *  pipe ends (no exec, so nothing is CLOEXEC'd for us). */
bool
spawnWorker(WorkerProc &w, std::vector<WorkerProc> &all,
            const std::vector<SweepCell> &cells)
{
    int toChild[2];
    int fromChild[2];
    if (::pipe(toChild) != 0)
        return false;
    if (::pipe(fromChild) != 0) {
        ::close(toChild[0]);
        ::close(toChild[1]);
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(toChild[0]);
        ::close(toChild[1]);
        ::close(fromChild[0]);
        ::close(fromChild[1]);
        return false;
    }
    if (pid == 0) {
        ::close(toChild[1]);
        ::close(fromChild[0]);
        for (const auto &other : all)
            if (other.alive) {
                ::close(other.cmdFd);
                ::close(other.resFd);
            }
        workerMain(toChild[0], fromChild[1], cells);
    }
    ::close(toChild[0]);
    ::close(fromChild[1]);
    w.pid = pid;
    w.cmdFd = toChild[1];
    w.resFd = fromChild[0];
    w.alive = true;
    w.batch.clear();
    w.got = 0;
    w.buf.clear();
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// The supervisor.

void
runCellsProcess(const std::vector<SweepCell> &cells,
                const std::vector<uint32_t> &todo,
                const SweepOptions &options,
                std::vector<SweepResult> &results, SweepJournal *journal)
{
    using Clock = std::chrono::steady_clock;

    // One batch per trace group, in first-appearance order, so each
    // batch shares one recorded trace.
    auto plan = detail::planGroups(cells, todo);
    std::deque<std::vector<uint32_t>> queue(
        std::make_move_iterator(plan.begin()),
        std::make_move_iterator(plan.end()));

    const double deadlineSecs = options.cellDeadlineSeconds > 0
        ? options.cellDeadlineSeconds
        : default_cell_deadline_seconds;
    const auto deadlineDur = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(deadlineSecs));

    const unsigned want = util::workerCount(queue.size(), options.threads);

    // A worker dying between frames must surface as EPIPE on our next
    // write, not kill the whole bench with SIGPIPE.
    struct sigaction ignorePipe{};
    struct sigaction oldPipe{};
    ignorePipe.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignorePipe, &oldPipe);

    std::vector<WorkerProc> workers(want);
    unsigned respawnsLeft = options.respawnBudget;

    auto journalAppend = [&](uint32_t idx) {
        if (!journal)
            return;
        const auto payload = serializeResultPayload(results[idx]);
        journal->append(idx, payload);
    };

    auto finalizeCell = [&](uint32_t idx, CellOutcome outcome,
                            std::string message, int workerIndex,
                            bool journalIt) {
        SweepResult r = detail::makeResultShell(cells[idx]);
        r.outcome = outcome;
        r.message = std::move(message);
        r.worker = workerIndex;
        results[idx] = std::move(r);
        if (journalIt)
            journalAppend(idx);
    };

    auto requeueRemainder = [&](WorkerProc &w) {
        // Everything after the in-flight cell goes back to survivors.
        if (w.got + 1 < w.batch.size())
            queue.emplace_front(w.batch.begin()
                                    + static_cast<ptrdiff_t>(w.got) + 1,
                                w.batch.end());
    };

    auto reapWorker = [&](WorkerProc &w) -> int {
        int status = 0;
        while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
        }
        ::close(w.cmdFd);
        ::close(w.resFd);
        w.cmdFd = w.resFd = -1;
        w.alive = false;
        return status;
    };

    auto describeDeath = [](int status) -> std::string {
        char buf[160];
        if (WIFSIGNALED(status)) {
            const int sig = WTERMSIG(status);
            const char *name = ::strsignal(sig);
            std::snprintf(
                buf, sizeof(buf),
                "worker killed by signal %d (%s) while running cell", sig,
                name ? name : "?");
        } else if (WIFEXITED(status)) {
            std::snprintf(buf, sizeof(buf),
                          "worker exited with status %d while running cell",
                          WEXITSTATUS(status));
        } else {
            std::snprintf(buf, sizeof(buf),
                          "worker vanished (wait status 0x%x) "
                          "while running cell",
                          static_cast<unsigned>(status));
        }
        return buf;
    };

    auto handleDeath = [&](WorkerProc &w, int wi) {
        const int status = reapWorker(w);
        if (w.got < w.batch.size()) {
            finalizeCell(w.batch[w.got], CellOutcome::Crashed,
                         describeDeath(status), wi, /*journalIt=*/true);
            requeueRemainder(w);
        }
        w.batch.clear();
        w.got = 0;
        w.buf.clear();
    };

    auto handleTimeout = [&](WorkerProc &w, int wi) {
        ::kill(w.pid, SIGKILL);
        reapWorker(w);
        char msg[128];
        std::snprintf(msg, sizeof(msg),
                      "cell exceeded %.1f s watchdog deadline; "
                      "worker killed",
                      deadlineSecs);
        finalizeCell(w.batch[w.got], CellOutcome::TimedOut, msg, wi,
                     /*journalIt=*/true);
        requeueRemainder(w);
        w.batch.clear();
        w.got = 0;
        w.buf.clear();
    };

    auto handleProtocolError = [&](WorkerProc &w, int wi,
                                   const std::string &what) {
        ::kill(w.pid, SIGKILL);
        reapWorker(w);
        if (w.got < w.batch.size()) {
            finalizeCell(w.batch[w.got], CellOutcome::Error,
                         "corrupt result frame from worker: " + what, wi,
                         /*journalIt=*/true);
            requeueRemainder(w);
        }
        w.batch.clear();
        w.got = 0;
        w.buf.clear();
    };

    // Parse complete frames from w.buf into results. Returns a
    // protocol-error description, empty while the stream is
    // well-formed.
    auto parseFrames = [&](WorkerProc &w) -> std::string {
        size_t off = 0;
        std::string error;
        while (w.buf.size() - off >= res_header_bytes) {
            const uint8_t *p = w.buf.data() + off;
            if (loadU32(p) != res_magic) {
                error = "bad frame magic";
                break;
            }
            const uint32_t idx = loadU32(p + 4);
            const uint32_t len = loadU32(p + 8);
            if (len > SweepJournal::max_payload) {
                error = "impossible frame length";
                break;
            }
            if (w.buf.size() - off < res_header_bytes + len)
                break; // incomplete frame: wait for more bytes
            uint64_t sum = util::fnv1a64(p + 4, 8);
            sum = util::fnv1a64(p + res_header_bytes, len, sum);
            if (sum != loadU64(p + 12)) {
                error = "frame checksum mismatch";
                break;
            }
            if (w.got >= w.batch.size() || idx != w.batch[w.got]) {
                error = "unexpected cell index in frame";
                break;
            }
            try {
                deserializeResultPayload({p + res_header_bytes, len},
                                         results[idx]);
            } catch (const JournalError &e) {
                // Undo any partial fill before failing the worker.
                results[idx] = detail::makeResultShell(cells[idx]);
                error = e.what();
                break;
            }
            journalAppend(idx);
            w.got++;
            w.deadline = Clock::now() + deadlineDur;
            off += res_header_bytes + len;
        }
        w.buf.erase(w.buf.begin(),
                    w.buf.begin() + static_cast<ptrdiff_t>(off));
        return error;
    };

    auto dispatch = [&](WorkerProc &w) {
        w.batch = std::move(queue.front());
        queue.pop_front();
        w.got = 0;
        w.buf.clear();
        std::vector<uint8_t> frame;
        frame.reserve(8 + 4 * w.batch.size());
        putU32(frame, cmd_magic);
        putU32(frame, static_cast<uint32_t>(w.batch.size()));
        for (uint32_t idx : w.batch)
            putU32(frame, idx);
        if (!writeFull(w.cmdFd, frame.data(), frame.size())) {
            // The worker died while idle: nothing was in flight, so
            // the whole batch goes back and the slot is respawnable.
            queue.push_front(std::move(w.batch));
            w.batch.clear();
            reapWorker(w);
            w.got = 0;
            return;
        }
        w.deadline = Clock::now() + deadlineDur;
    };

    for (auto &w : workers)
        if (!spawnWorker(w, workers, cells))
            break; // fork pressure: run with fewer workers

    for (;;) {
        // Refill dead slots while queued work remains (bounded budget).
        for (auto &w : workers)
            if (!w.alive && !queue.empty() && respawnsLeft > 0) {
                respawnsLeft--;
                spawnWorker(w, workers, cells);
            }

        // Hand batches to idle live workers.
        for (auto &w : workers)
            if (w.alive && !w.busy() && !queue.empty())
                dispatch(w);

        std::vector<int> busyIdx;
        for (size_t wi = 0; wi < workers.size(); wi++)
            if (workers[wi].busy())
                busyIdx.push_back(static_cast<int>(wi));

        if (busyIdx.empty()) {
            if (queue.empty())
                break; // every cell accounted for
            const bool anyAlive =
                std::any_of(workers.begin(), workers.end(),
                            [](const WorkerProc &w) { return w.alive; });
            if (!anyAlive && respawnsLeft == 0) {
                // Budget exhausted with work pending: fail the cells
                // *without* journaling them, so a rerun retries.
                for (const auto &batch : queue)
                    for (uint32_t idx : batch)
                        finalizeCell(idx, CellOutcome::Error,
                                     "worker respawn budget exhausted; "
                                     "cell not run",
                                     -1, /*journalIt=*/false);
                queue.clear();
                break;
            }
            continue; // respawn/dispatch next round
        }

        // Poll until data or the nearest watchdog deadline.
        auto now = Clock::now();
        long waitMs = 60'000;
        for (int wi : busyIdx) {
            const auto remain =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    workers[static_cast<size_t>(wi)].deadline - now)
                    .count();
            waitMs = std::min(waitMs, std::max<long>(0, remain + 1));
        }
        std::vector<pollfd> fds;
        fds.reserve(busyIdx.size());
        for (int wi : busyIdx)
            fds.push_back({workers[static_cast<size_t>(wi)].resFd, POLLIN,
                           0});
        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                              static_cast<int>(waitMs));
        if (rc < 0 && errno != EINTR)
            continue; // defensive: fall through to the watchdog pass

        for (size_t k = 0; rc > 0 && k < fds.size(); k++) {
            WorkerProc &w = workers[static_cast<size_t>(busyIdx[k])];
            if (!w.alive
                || !(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            uint8_t chunk[65536];
            const ssize_t n = ::read(w.resFd, chunk, sizeof(chunk));
            if (n > 0) {
                w.buf.insert(w.buf.end(), chunk, chunk + n);
                const std::string err = parseFrames(w);
                if (!err.empty())
                    handleProtocolError(w, busyIdx[k], err);
            } else if (n == 0) {
                handleDeath(w, busyIdx[k]);
            } else if (errno != EINTR && errno != EAGAIN) {
                handleDeath(w, busyIdx[k]);
            }
        }

        // Watchdog pass: anyone past deadline is killed.
        now = Clock::now();
        for (int wi : busyIdx) {
            WorkerProc &w = workers[static_cast<size_t>(wi)];
            if (w.busy() && now >= w.deadline)
                handleTimeout(w, wi);
        }
    }

    // Orderly shutdown: EOF on the command pipes, then reap everyone.
    for (auto &w : workers)
        if (w.alive)
            ::close(w.cmdFd);
    for (auto &w : workers) {
        if (!w.alive)
            continue;
        int status = 0;
        while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
        }
        ::close(w.resFd);
        w.alive = false;
    }
    ::sigaction(SIGPIPE, &oldPipe, nullptr);
}

} // namespace cryptarch::driver
