#include "driver/sweep.hh"

#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "driver/cell_exec.hh"
#include "driver/json.hh"
#include "driver/procpool.hh"
#include "isa/trap.hh"
#include "sim/validate.hh"
#include "util/parallel.hh"
#include "verify/oracle.hh"

namespace cryptarch::driver
{

const char *
cellOutcomeName(CellOutcome outcome)
{
    switch (outcome) {
      case CellOutcome::Ok: return "ok";
      case CellOutcome::Trapped: return "trapped";
      case CellOutcome::VerifyFailed: return "verify_failed";
      case CellOutcome::Error: return "error";
      case CellOutcome::Crashed: return "crashed";
      case CellOutcome::TimedOut: return "timed_out";
      case CellOutcome::Rejected: return "rejected";
      case CellOutcome::Stalled: return "stalled";
    }
    return "?";
}

namespace detail
{

std::vector<std::vector<uint32_t>>
planGroups(const std::vector<SweepCell> &cells,
           const std::vector<uint32_t> &todo)
{
    using GroupKey = std::tuple<crypto::CipherId, kernels::KernelVariant,
                                size_t, kernels::KernelDirection>;
    std::map<GroupKey, size_t> groupOf;
    std::vector<std::vector<uint32_t>> groups;
    for (uint32_t i : todo) {
        const SweepCell &c = cells[i];
        auto [it, fresh] = groupOf.try_emplace(
            GroupKey{c.cipher, c.variant, c.bytes, c.direction},
            groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

void
classifyFailure(SweepResult &r, std::exception_ptr ep)
{
    try {
        std::rethrow_exception(ep);
    } catch (const sim::ConfigRejected &e) {
        r.outcome = CellOutcome::Rejected;
        r.message = e.what();
    } catch (const isa::Trap &t) {
        // A forward-progress watchdog trip is a property of the
        // machine model, not the workload: its own outcome keeps
        // `trapped` meaning "the functional machine faulted".
        r.outcome = t.cause() == isa::TrapCause::NoProgress
            ? CellOutcome::Stalled
            : CellOutcome::Trapped;
        r.message = t.what();
    } catch (const verify::VerifyError &e) {
        r.outcome = CellOutcome::VerifyFailed;
        r.message = e.what();
    } catch (const std::exception &e) {
        r.outcome = CellOutcome::Error;
        r.message = e.what();
    } catch (...) {
        r.outcome = CellOutcome::Error;
        r.message = "unknown error";
    }
}

SweepResult
makeResultShell(const SweepCell &cell)
{
    SweepResult r;
    r.cipher = cell.cipher;
    r.variant = cell.variant;
    r.model = cell.model.name;
    r.bytes = cell.bytes;
    r.direction = cell.direction;
    return r;
}

void
executeCell(const SweepCell &cell, TraceGroup &group, SweepResult &r,
            bool fullPathCheck)
{
    // The whole body is wrapped: an exception escaping any step —
    // std::bad_alloc while building the result included — classifies
    // the cell instead of std::terminate-ing the sweep.
    try {
        std::call_once(group.once, [&]() {
            try {
                group.trace = recordKernelTrace(cell.cipher, cell.variant,
                                                cell.bytes, cell.direction);
            } catch (...) {
                group.recordError = std::current_exception();
            }
        });
        if (group.recordError) {
            classifyFailure(r, group.recordError);
            return;
        }
        uint64_t skipped = 0;
        r.stats = group.trace.replay(cell.model, &skipped);
        // With nothing skipped, replay(cfg) fed every instruction to
        // the core in order, which is the full path already.
        if (fullPathCheck && skipped) {
            sim::OooScheduler sched(cell.model);
            group.trace.replay(static_cast<isa::TraceSink &>(sched));
            const std::string full = toJson(sched.finish());
            if (full != toJson(r.stats))
                throw std::logic_error(
                    "fast-forward gave " + toJson(r.stats)
                    + " but the full path " + full);
        }
    } catch (...) {
        classifyFailure(r, std::current_exception());
    }
}

} // namespace detail

namespace
{

/**
 * Open the journal for @p cells, falling back to a fresh run when the
 * existing file is rejected. Cells whose journaled payloads load are
 * marked done with their recorded results; a payload the codec
 * rejects (possible only across a codec change — record checksums
 * already passed) degrades to rerunning that cell.
 */
void
resumeFromJournal(SweepJournal &journal, const std::string &path,
                  const std::vector<SweepCell> &cells,
                  std::vector<SweepResult> &results,
                  std::vector<char> &done)
{
    const uint64_t fp = gridFingerprint(cells);
    try {
        journal.open(path, fp, cells.size());
    } catch (const JournalError &e) {
        std::fprintf(stderr,
                     "sweep: journal %s rejected (%s); starting fresh\n",
                     path.c_str(), e.what());
        journal.openFresh(path, fp, cells.size());
        return;
    }
    for (const auto &[index, payload] : journal.loadedRecords()) {
        try {
            deserializeResultPayload(payload, results[index]);
            done[index] = 1;
        } catch (const JournalError &e) {
            std::fprintf(stderr,
                         "sweep: journal record for cell %u unusable "
                         "(%s); re-running it\n",
                         index, e.what());
        }
    }
}

void
runCellsThread(const std::vector<SweepCell> &cells,
               const std::vector<uint32_t> &todo,
               const SweepOptions &options,
               std::vector<SweepResult> &results, SweepJournal *journal)
{
    // Every group's first cell (the one that records its trace) leads
    // the queue, so distinct kernels record in parallel; the remaining
    // cells follow in input order, each waiting only on its own
    // group's once_flag.
    const auto plan = detail::planGroups(cells, todo);
    std::vector<detail::TraceGroup> groups(plan.size());
    std::vector<uint32_t> groupOf(cells.size());
    std::vector<uint32_t> queue;
    queue.reserve(todo.size());
    for (uint32_t g = 0; g < plan.size(); g++) {
        for (uint32_t i : plan[g])
            groupOf[i] = g;
        queue.push_back(plan[g].front());
    }
    for (uint32_t i : todo)
        if (plan[groupOf[i]].front() != i)
            queue.push_back(i);

    std::mutex journalMutex;
    util::parallelFor(queue.size(), options.threads, [&](size_t k) {
        const uint32_t i = queue[k];
        SweepResult r = detail::makeResultShell(cells[i]);
        detail::executeCell(cells[i], groups[groupOf[i]], r,
                            options.fullPathCheck);
        if (journal) {
            auto payload = serializeResultPayload(r);
            std::lock_guard<std::mutex> lock(journalMutex);
            journal->append(i, payload);
        }
        results[i] = std::move(r);
    });
}

} // namespace

std::vector<SweepResult>
runCells(const std::vector<SweepCell> &cells, const SweepOptions &options)
{
    std::vector<SweepResult> results;
    results.reserve(cells.size());
    for (const auto &cell : cells)
        results.push_back(detail::makeResultShell(cell));
    if (cells.empty())
        return results;

    std::vector<char> done(cells.size(), 0);
    SweepJournal journal;
    if (!options.journalPath.empty())
        resumeFromJournal(journal, options.journalPath, cells, results,
                          done);

    std::vector<uint32_t> todo;
    todo.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); i++)
        if (!done[i])
            todo.push_back(static_cast<uint32_t>(i));
    if (todo.empty())
        return results;

    SweepJournal *jp = journal.isOpen() ? &journal : nullptr;
    if (options.isolation == SweepIsolation::Process)
        runCellsProcess(cells, todo, options, results, jp);
    else
        runCellsThread(cells, todo, options, results, jp);
    return results;
}

std::vector<SweepResult>
runCells(const std::vector<SweepCell> &cells, unsigned threads)
{
    SweepOptions options;
    if (threads)
        options.threads = threads;
    return runCells(cells, options);
}

std::vector<SweepResult>
runSweep(const SweepSpec &spec, const SweepOptions &options)
{
    std::vector<SweepCell> cells;
    cells.reserve(spec.ciphers.size() * spec.variants.size()
                  * spec.models.size());
    for (auto cipher : spec.ciphers)
        for (auto variant : spec.variants)
            for (const auto &model : spec.models)
                cells.push_back({cipher, variant, model, spec.bytes});
    return runCells(cells, options);
}

std::vector<SweepResult>
runSweep(const SweepSpec &spec)
{
    return runSweep(spec, SweepOptions{});
}

const SweepResult &
findResult(const std::vector<SweepResult> &results, crypto::CipherId cipher,
           kernels::KernelVariant variant, std::string_view model,
           kernels::KernelDirection direction)
{
    for (const auto &r : results)
        if (r.cipher == cipher && r.variant == variant && r.model == model
            && r.direction == direction)
            return r;
    throw std::out_of_range("sweep: no result for ("
                            + crypto::cipherInfo(cipher).name + ", "
                            + kernels::variantName(variant) + ", "
                            + std::string(model) + ", "
                            + kernels::directionName(direction) + ")");
}

} // namespace cryptarch::driver
