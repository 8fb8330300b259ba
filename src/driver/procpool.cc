#include "driver/procpool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <optional>

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
// Little-endian byte codec shared by the result payload, the records
// and the journal header.

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
// Full-buffer write (EINTR-safe).

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
        // Only decrypt cells add a tag (no CipherId value), so every
        // encrypt-only grid keeps its fingerprint.
        if (cell.direction == kernels::KernelDirection::Decrypt)
            putU32(b, 0xDEC0DE);
    }
    return util::fnv1a64(b.data(), b.size());
}

// ---------------------------------------------------------------------
// Records and the checkpoint journal.

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

/** One record: index, payload length, payload, FNV-1a over all three. */
std::vector<uint8_t>
encodeRecord(uint32_t index, std::span<const uint8_t> payload)
{
    std::vector<uint8_t> rec;
    rec.reserve(record_overhead_bytes + payload.size());
    putU32(rec, index);
    putU32(rec, static_cast<uint32_t>(payload.size()));
    rec.insert(rec.end(), payload.begin(), payload.end());
    putU64(rec, util::fnv1a64(rec.data(), rec.size()));
    return rec;
}

/** A record parsed in place; @c bytes is its encoded size. */
struct Record
{
    uint32_t index;
    std::span<const uint8_t> payload;
    size_t bytes;
};

/**
 * The record at the front of @p in, nullopt while @p in holds only
 * part of one. Throws JournalError on an impossible length or a
 * checksum mismatch. The caller validates the index.
 */
std::optional<Record>
parseRecord(std::span<const uint8_t> in)
{
    if (in.size() < record_overhead_bytes)
        return std::nullopt;
    const uint32_t len = loadU32(in.data() + 4);
    if (len > SweepJournal::max_payload)
        throw JournalError(JournalErrorKind::Inconsistent,
                           "impossible record length");
    if (in.size() < record_overhead_bytes + len)
        return std::nullopt;
    if (util::fnv1a64(in.data(), 8 + len) != loadU64(in.data() + 8 + len))
        throw JournalError(JournalErrorKind::BadChecksum,
                           "record checksum mismatch");
    return Record{loadU32(in.data()), in.subspan(8, len),
                  record_overhead_bytes + len};
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
    try {
        load(fingerprint, cellCount);
    } catch (const JournalError &) {
        close();
        loaded_.clear();
        throw;
    }
}

void
SweepJournal::load(uint64_t fingerprint, uint64_t cellCount)
{
    // Journals are one small record per cell: read whole, then parse.
    std::vector<uint8_t> data;
    uint8_t chunk[65536];
    for (;;) {
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw JournalError(JournalErrorKind::Io,
                               std::string("read failed: ")
                                   + std::strerror(errno));
        }
        if (n == 0)
            break;
        data.insert(data.end(), chunk, chunk + n);
    }

    if (data.empty()) {
        // Missing or empty file: a fresh journal.
        auto header = journalHeader(fingerprint, cellCount);
        if (!writeFull(fd_, header.data(), header.size()))
            throw JournalError(JournalErrorKind::Io,
                               "cannot write journal header");
        return;
    }

    if (data.size() < journal_header_bytes)
        throw JournalError(JournalErrorKind::Truncated, "header cut short");
    if (loadU32(&data[0]) != magic)
        throw JournalError(JournalErrorKind::BadMagic, "not a sweep journal");
    if (loadU32(&data[4]) != version)
        throw JournalError(JournalErrorKind::BadVersion,
                           "unknown journal version");
    if (loadU64(&data[8]) != fingerprint || loadU64(&data[16]) != cellCount)
        throw JournalError(JournalErrorKind::GridMismatch,
                           "journal belongs to a different sweep grid");

    // A partial trailing record (the SIGKILL-mid-append case) ends the
    // loop like the end of the file does.
    std::vector<char> seen(cellCount, 0);
    size_t off = journal_header_bytes;
    while (auto rec = parseRecord(std::span(data).subspan(off))) {
        if (rec->index >= cellCount)
            throw JournalError(JournalErrorKind::Inconsistent,
                               "record index out of range");
        if (seen[rec->index])
            throw JournalError(JournalErrorKind::Inconsistent,
                               "duplicate cell record");
        seen[rec->index] = 1;
        loaded_.emplace_back(rec->index,
                             std::vector<uint8_t>(rec->payload.begin(),
                                                  rec->payload.end()));
        off += rec->bytes;
    }

    // Drop the partial tail (if any) so appends start on a record
    // boundary, then position at the end.
    if (off < data.size() && ::ftruncate(fd_, static_cast<off_t>(off)) != 0)
        throw JournalError(JournalErrorKind::Io,
                           "cannot truncate partial record");
    if (::lseek(fd_, 0, SEEK_END) < 0)
        throw JournalError(JournalErrorKind::Io, "seek failed");
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
    // One write per record: a kill can only sever the trailing record,
    // which open() tolerates and truncates away.
    const auto rec = encodeRecord(index, payload);
    if (!writeFull(fd_, rec.data(), rec.size()))
        throw JournalError(JournalErrorKind::Io,
                           std::string("append failed: ")
                               + std::strerror(errno));
}

namespace
{

/** Fire a chaos fault point; never returns. */
[[noreturn]] void
applyChaos(ChaosAction action)
{
    switch (action) {
      case ChaosAction::Crash:
        ::raise(SIGSEGV);
        ::_exit(99); // sanitizers may turn the signal into an exit
      case ChaosAction::Abort:
        std::abort();
      case ChaosAction::Exit:
        ::_exit(3);
      case ChaosAction::Hang:
        break;
    }
    for (;;)
        ::pause(); // watchdog food; SIGKILL is the only way out
}

/**
 * A forked child's whole life: run each cell of @p batch (chaos hook
 * first) and write one record per cell to @p fd. Returns never.
 */
[[noreturn]] void
childMain(int fd, const std::vector<SweepCell> &cells,
          const std::vector<uint32_t> &batch, const SweepOptions &options)
{
    // Batches are group-aligned: one TraceGroup records the kernel
    // once, every cell of the batch replays it.
    detail::TraceGroup group;
    for (uint32_t idx : batch) {
        for (const ChaosPoint &p : options.chaos)
            if (p.cell == idx)
                applyChaos(p.action);
        SweepResult r = detail::makeResultShell(cells[idx]);
        detail::executeCell(cells[idx], group, r, options.fullPathCheck);
        const auto rec = encodeRecord(idx, serializeResultPayload(r));
        if (!writeFull(fd, rec.data(), rec.size()))
            break; // parent went away
    }
    ::_exit(0);
}

/** Parent-side state of one slot; pid < 0 when the slot is free. */
struct Child
{
    pid_t pid = -1;
    int fd = -1; ///< read end of the child's result pipe
    std::vector<uint32_t> batch;
    size_t got = 0; ///< records received so far
    std::chrono::steady_clock::time_point deadline{};
    std::vector<uint8_t> buf; ///< unparsed result-pipe bytes
};

int
waitStatus(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

std::string
describeDeath(int status)
{
    char buf[160];
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        const char *name = ::strsignal(sig);
        std::snprintf(buf, sizeof(buf),
                      "worker killed by signal %d (%s) while running cell",
                      sig, name ? name : "?");
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
    // child records its kernel once.
    auto plan = detail::planGroups(cells, todo);
    std::deque<std::vector<uint32_t>> queue(
        std::make_move_iterator(plan.begin()),
        std::make_move_iterator(plan.end()));

    const double deadlineSecs = options.cellDeadlineSeconds > 0
        ? options.cellDeadlineSeconds
        : default_cell_deadline_seconds;
    // Saturate at ~32 years, which no sweep reaches: a huge deadline
    // (or inf) means "never". Unclamped, the double-to-nanoseconds cast
    // is undefined past ~9.2e9 s, and now + deadline could overflow.
    constexpr double never_secs = 1e9;
    const auto deadlineDur = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(std::min(deadlineSecs, never_secs)));

    std::vector<Child> slots(
        util::workerCount(queue.size(), options.threads));
    std::vector<pid_t> finished; // children that sent their last record

    // Fork a child for the next queued batch into @p slot; false when
    // pipe() or fork() fails.
    auto start = [&](Child &slot) {
        int fds[2];
        if (::pipe(fds) != 0)
            return false;
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            return false;
        }
        if (pid == 0) {
            ::close(fds[0]);
            for (const Child &other : slots)
                if (other.pid >= 0)
                    ::close(other.fd);
            childMain(fds[1], cells, queue.front(), options);
        }
        ::close(fds[1]);
        slot.pid = pid;
        slot.fd = fds[0];
        slot.batch = std::move(queue.front());
        queue.pop_front();
        slot.deadline = Clock::now() + deadlineDur;
        return true;
    };

    // The one retire path: the child will send nothing more (EOF,
    // watchdog, corrupt record). Kill it (a no-op on a dead child),
    // reap it, mark its in-flight cell and requeue the rest. A Crashed
    // cell's message is the child's wait status.
    auto retire = [&](size_t s, CellOutcome outcome, std::string message) {
        Child &c = slots[s];
        ::kill(c.pid, SIGKILL);
        const int status = waitStatus(c.pid);
        ::close(c.fd);
        const uint32_t idx = c.batch[c.got];
        SweepResult r = detail::makeResultShell(cells[idx]);
        r.outcome = outcome;
        r.message = outcome == CellOutcome::Crashed ? describeDeath(status)
                                                    : std::move(message);
        r.worker = static_cast<int>(s);
        if (journal)
            journal->append(idx, serializeResultPayload(r));
        results[idx] = std::move(r);
        if (c.got + 1 < c.batch.size())
            queue.emplace_front(
                c.batch.begin() + static_cast<ptrdiff_t>(c.got) + 1,
                c.batch.end());
        c = Child{};
    };

    // Take every complete record off slot @p s's buffer; the slot is
    // freed on the batch's last record.
    auto drain = [&](size_t s) {
        Child &c = slots[s];
        size_t off = 0;
        for (;;) {
            std::optional<Record> rec;
            try {
                rec = parseRecord(std::span(c.buf).subspan(off));
                if (!rec)
                    break;
                if (rec->index != c.batch[c.got])
                    throw JournalError(JournalErrorKind::Inconsistent,
                                       "unexpected cell index");
                deserializeResultPayload(rec->payload, results[rec->index]);
            } catch (const JournalError &e) {
                retire(s, CellOutcome::Error,
                       std::string("corrupt result record from worker: ")
                           + e.what());
                return;
            }
            if (journal)
                journal->append(rec->index, rec->payload);
            off += rec->bytes;
            c.deadline = Clock::now() + deadlineDur;
            if (++c.got == c.batch.size()) {
                ::close(c.fd);
                finished.push_back(c.pid);
                c = Child{};
                return;
            }
        }
        c.buf.erase(c.buf.begin(),
                    c.buf.begin() + static_cast<ptrdiff_t>(off));
    };

    for (;;) {
        std::erase_if(finished, [](pid_t pid) {
            return ::waitpid(pid, nullptr, WNOHANG) == pid;
        });
        for (auto &slot : slots)
            if (slot.pid < 0 && !queue.empty() && !start(slot))
                break; // fork pressure: go on with the running children

        std::vector<pollfd> fds;
        std::vector<size_t> slotOf;
        auto now = Clock::now();
        long waitMs = 60'000;
        for (size_t s = 0; s < slots.size(); s++) {
            if (slots[s].pid < 0)
                continue;
            fds.push_back({slots[s].fd, POLLIN, 0});
            slotOf.push_back(s);
            const auto remain =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    slots[s].deadline - now)
                    .count();
            waitMs = std::min(waitMs, std::max<long>(0, remain + 1));
        }
        if (fds.empty()) {
            // Nothing running: either done, or a fork failed with no
            // child left to wait for. Such cells are not journaled, so
            // a rerun retries them.
            for (const auto &batch : queue)
                for (uint32_t idx : batch) {
                    results[idx].outcome = CellOutcome::Error;
                    results[idx].message =
                        "could not fork a worker; cell not run";
                }
            break;
        }

        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                              static_cast<int>(waitMs));
        for (size_t k = 0; rc > 0 && k < fds.size(); k++) {
            if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Child &c = slots[slotOf[k]];
            uint8_t chunk[65536];
            const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
            if (n > 0) {
                c.buf.insert(c.buf.end(), chunk, chunk + n);
                drain(slotOf[k]);
            } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
                retire(slotOf[k], CellOutcome::Crashed, {});
            }
        }

        // Watchdog pass: a child past its deadline is killed.
        now = Clock::now();
        for (size_t s : slotOf)
            if (slots[s].pid >= 0 && now >= slots[s].deadline) {
                char msg[128];
                std::snprintf(msg, sizeof(msg),
                              "cell exceeded %.1f s watchdog deadline; "
                              "worker killed",
                              deadlineSecs);
                retire(s, CellOutcome::TimedOut, msg);
            }
    }

    for (pid_t pid : finished)
        waitStatus(pid);
}

} // namespace cryptarch::driver
