/**
 * @file
 * Crash-safe sweep execution: process-isolated workers, watchdog
 * deadlines, and the resumable checkpoint journal.
 *
 * ## Process pool
 *
 * runCellsProcess() forks one short-lived child per batch (no exec —
 * a child inherits the cell vector and its batch, so nothing is sent
 * to it). Batches are the trace groups of the plan the thread pool
 * also schedules from (detail::planGroups), so a child records its
 * kernel once and replays it per model; the number of children
 * running at once comes from util::workerCount, as the thread pool's
 * worker count does. A child runs each cell of its batch, writes one
 * journal record per cell (format below) to its result pipe, and
 * exits. The parent supervises the pipes from a single-threaded poll
 * loop, appends each received payload to the journal as it arrives,
 * and frees a slot as soon as the batch's last record is in.
 *
 * A child that will send nothing more goes through one retire path:
 *   - EOF before the last record (the child died on a signal or
 *     exited): the in-flight cell (the first one without a record)
 *     becomes Crashed with the signal or exit status in its message;
 *   - no record within the per-cell watchdog deadline: the child is
 *     SIGKILLed and the in-flight cell becomes TimedOut;
 *   - a record that fails validation (length, checksum, index,
 *     payload): the child is SIGKILLed and the in-flight cell becomes
 *     Error rather than trusting a corrupt stream.
 * In each case the rest of the batch is requeued for a new child.
 * Each retire costs the batch at least one cell, so a grid whose every
 * cell crashes still terminates after one child per cell. When fork()
 * fails with no child running, the queued cells become Error and are
 * NOT journaled, so a rerun retries them.
 *
 * ## Checkpoint journal
 *
 * An append-only binary file: a versioned header binding the journal
 * to its grid, then one FNV-checksummed record per finished cell:
 *
 *   header  u32 magic "CSWJ", u32 version, u64 grid fingerprint,
 *           u64 cell count
 *   record  u32 cell index, u32 payload length, payload bytes,
 *           u64 FNV-1a over (index, length, payload)
 *
 * The payload is the serialized SweepResult body (see the codec
 * below). The result pipes carry the same records, written and parsed
 * by the same pair of functions.
 *
 * The grid fingerprint folds every cell's coordinates (cipher,
 * variant, session bytes, model name), so a journal can never replay
 * into a different sweep. Records are appended with one write() each
 * as cells finish — in either isolation mode — and loading tolerates
 * exactly one defect class: an incomplete trailing record (the
 * expected artifact of a SIGKILL mid-append), which is dropped and
 * truncated away. Everything else — short or bad header, wrong grid,
 * a bit-flipped record, an impossible index — raises JournalError and
 * the sweep falls back to a fresh run with a rewritten journal.
 * Resumed cells reuse their journaled results verbatim, which is what
 * makes a kill-and-resume BENCH_*.json byte-identical to an
 * uninterrupted run.
 *
 * ## Chaos fault points
 *
 * SweepOptions::chaos holds the chaos harness's (bench/chaos.cc) fault
 * points: a child fires a point's action (crash, abort, exit, hang)
 * immediately before it runs the point's cell. The points are how
 * crash/hang classification and kill-and-resume are exercised without
 * special builds; with the field empty, as every bench leaves it,
 * nothing fires.
 */

#ifndef CRYPTARCH_DRIVER_PROCPOOL_HH
#define CRYPTARCH_DRIVER_PROCPOOL_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver/sweep.hh"

namespace cryptarch::driver
{

/** What a checkpoint journal (or result payload) failed to validate. */
enum class JournalErrorKind : uint8_t
{
    BadMagic,     ///< file does not start with the journal magic
    BadVersion,   ///< unknown journal/codec version
    GridMismatch, ///< journal belongs to a different sweep grid
    Truncated,    ///< header (or a promised payload) cut short
    BadChecksum,  ///< record checksum mismatch (bit corruption)
    Inconsistent, ///< impossible index, length, or payload contents
    Io,           ///< host I/O failure reading or appending
};

/** Stable short name of a journal error kind ("bad-magic", ...). */
const char *journalErrorKindName(JournalErrorKind kind);

/**
 * A checkpoint journal or serialized result was rejected. Every
 * malformed-input path raises this typed error; runCells catches it,
 * warns, and falls back to a fresh run.
 */
class JournalError : public std::runtime_error
{
  public:
    JournalError(JournalErrorKind kind, const std::string &detail)
        : std::runtime_error("SweepJournal ["
                             + std::string(journalErrorKindName(kind))
                             + "]: " + detail),
          kind_(kind)
    {
    }

    JournalErrorKind kind() const { return kind_; }

  private:
    JournalErrorKind kind_;
};

/**
 * Serialize the non-coordinate body of @p r (outcome, worker,
 * message, full SimStats) as the versioned little-endian payload of a
 * record, on a result pipe or in the journal. Coordinates are never
 * encoded: both consumers already know the cell and refill them, so a
 * payload cannot disagree with its grid position.
 */
std::vector<uint8_t> serializeResultPayload(const SweepResult &r);

/**
 * Decode a serializeResultPayload() stream into @p r, leaving the
 * coordinate fields untouched. Throws JournalError (BadVersion /
 * Truncated / Inconsistent) on any defect, including trailing bytes.
 */
void deserializeResultPayload(std::span<const uint8_t> payload,
                              SweepResult &r);

/**
 * FNV-1a fingerprint of a cell list's coordinates. Journals store it
 * so a resume against a different grid is a typed GridMismatch, not
 * silently wrong results.
 */
uint64_t gridFingerprint(const std::vector<SweepCell> &cells);

/**
 * The append-only checkpoint journal. One instance per sweep; the
 * thread pool serializes append() under its own mutex, the process
 * pool appends from its single-threaded supervisor loop.
 */
class SweepJournal
{
  public:
    static constexpr uint32_t magic = 0x4A575343; // "CSWJ" little-endian
    static constexpr uint32_t version = 1;
    /** Sanity bound on a record's payload length. */
    static constexpr uint32_t max_payload = 1u << 24;

    SweepJournal() = default;
    ~SweepJournal();
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Open @p path for a grid of @p cellCount cells fingerprinted by
     * @p fingerprint, loading every complete valid record (available
     * afterwards via loadedRecords()) and truncating away a partial
     * trailing record. A missing or empty file becomes a fresh
     * journal. Throws JournalError on corruption; the instance is
     * closed afterwards and openFresh() is the recovery path.
     */
    void open(const std::string &path, uint64_t fingerprint,
              uint64_t cellCount);

    /** Open @p path discarding any existing contents (fresh header). */
    void openFresh(const std::string &path, uint64_t fingerprint,
                   uint64_t cellCount);

    bool isOpen() const { return fd_ >= 0; }

    /** (cell index, payload) for each record open() accepted. */
    const std::vector<std::pair<uint32_t, std::vector<uint8_t>>> &
    loadedRecords() const
    {
        return loaded_;
    }

    /**
     * Append one finished cell as a single write(), so a kill can
     * only ever leave a partial *trailing* record. Throws
     * JournalError(Io) when the host write fails.
     */
    void append(uint32_t index, std::span<const uint8_t> payload);

  private:
    void close();
    /** Parse the open file into loaded_ (or write a fresh header). */
    void load(uint64_t fingerprint, uint64_t cellCount);

    int fd_ = -1;
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> loaded_;
};

/**
 * Execute the cells listed in @p todo (indices into @p cells) under
 * process isolation, writing into the pre-shelled @p results and
 * appending each finished cell to @p journal when non-null. Called by
 * runCells — not directly by benches — after journal resume has
 * already filtered @p todo.
 */
void runCellsProcess(const std::vector<SweepCell> &cells,
                     const std::vector<uint32_t> &todo,
                     const SweepOptions &options,
                     std::vector<SweepResult> &results,
                     SweepJournal *journal);

} // namespace cryptarch::driver

#endif // CRYPTARCH_DRIVER_PROCPOOL_HH
