/**
 * @file
 * Chaos harness: does the crash-safe sweep layer actually survive the
 * faults it claims to?
 *
 * Each scenario runs a small (cipher x model) grid under process
 * isolation with fault points armed (SweepOptions::chaos,
 * src/driver/sweep.hh): a worker that
 * segfaults, aborts, or exits mid-sweep must cost exactly the faulted
 * cell (outcome `crashed`), a hung worker must be reaped by the
 * watchdog (outcome `timed_out`), and every other cell of the grid
 * must finish `ok`. A final scenario records a checkpoint journal
 * through a crash and re-runs against it, requiring the resumed
 * BENCH json to be byte-identical to the first run's.
 *
 * The scenarios assert on observed outcomes and the bench exits
 * nonzero if any expectation fails, so it doubles as an end-to-end
 * test in CI (sanitizer jobs run `chaos --quick`).
 *
 * Usage: chaos [--quick]
 *   --quick  CI smoke mode: smaller grid, fewer scenarios.
 *
 * JSON shape (hand-rolled; this bench has verdicts, not SimStats):
 *
 *   {
 *     "bench": "chaos",
 *     "schema": 1,
 *     "results": [
 *       {"scenario": "...", "action": "...", "targets": N,
 *        "expected": "crashed", "matched": N,
 *        "ok_cells": N, "total_cells": N, "passed": true}, ...
 *     ],
 *     "passed": true
 *   }
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace
{

using namespace cryptarch;
using driver::CellOutcome;
using driver::ChaosAction;
using driver::SweepCell;
using driver::SweepOptions;
using driver::SweepResult;

/** One armed fault and the outcome its cell must end with. */
struct Target
{
    driver::ChaosPoint point;
    CellOutcome expected;
};

struct Verdict
{
    std::string scenario;
    std::string action;
    size_t targets = 0;
    std::string expected;
    size_t matched = 0;
    size_t okCells = 0;
    size_t totalCells = 0;
    bool passed = false;
};

/** Whole-file contents, for byte-identity comparison. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cryptarch::bench;
    using kernels::KernelVariant;

    rejectUnknownArgs(argc, argv, {"--quick"});
    bool quick = false;
    for (int i = 1; i < argc; i++)
        if (!std::strcmp(argv[i], "--quick"))
            quick = true;

    // Small sessions: chaos measures the supervisor, not the ciphers.
    const size_t bytes = 1024;
    const std::vector<crypto::CipherId> ciphers = quick
        ? std::vector<crypto::CipherId>{crypto::CipherId::RC4,
                                        crypto::CipherId::Rijndael}
        : std::vector<crypto::CipherId>{
              crypto::CipherId::RC4, crypto::CipherId::Rijndael,
              crypto::CipherId::Blowfish, crypto::CipherId::IDEA};
    const std::vector<sim::MachineConfig> models = quick
        ? std::vector<sim::MachineConfig>{sim::MachineConfig::fourWide()}
        : std::vector<sim::MachineConfig>{sim::MachineConfig::fourWide(),
                                          sim::MachineConfig::dataflow()};

    std::vector<SweepCell> cells;
    for (auto id : ciphers)
        for (const auto &m : models)
            cells.push_back({id, KernelVariant::Optimized, m, bytes});

    std::vector<Verdict> verdicts;

    auto runScenario = [&](const std::string &name, const char *action,
                           const std::vector<Target> &targets,
                           double deadline) {
        SweepOptions opts;
        opts.isolation = driver::SweepIsolation::Process;
        opts.cellDeadlineSeconds = deadline;
        for (const auto &t : targets)
            opts.chaos.push_back(t.point);
        auto results = driver::runCells(cells, opts);

        Verdict v;
        v.scenario = name;
        v.action = action;
        v.targets = targets.size();
        v.expected = targets.empty()
            ? "ok"
            : driver::cellOutcomeName(targets[0].expected);
        v.totalCells = results.size();
        for (const auto &r : results)
            if (r.ok())
                v.okCells++;
        for (const auto &t : targets)
            if (results[t.point.cell].outcome == t.expected)
                v.matched++;
        // Pass = every armed fault classified as expected AND every
        // unfaulted cell survived with real stats.
        v.passed = v.matched == v.targets
            && v.okCells == v.totalCells - v.targets;
        verdicts.push_back(v);
        return results;
    };

    // The fault point on the cell of ciphers[ci] x models[mi].
    auto target = [&](ChaosAction action, size_t ci, size_t mi,
                      CellOutcome expected) -> Target {
        return {{static_cast<uint32_t>(ci * models.size() + mi), action},
                expected};
    };

    std::printf("Chaos harness (%s mode): %zu-cell grid, process "
                "isolation.\n\n",
                quick ? "quick" : "full", cells.size());

    runScenario("baseline", "none", {}, 0);
    const size_t lastCipher = ciphers.size() - 1;
    const size_t lastModel = models.size() - 1;
    runScenario("crash", "crash",
                {target(ChaosAction::Crash, 0, 0, CellOutcome::Crashed)}, 0);
    if (!quick) {
        runScenario("abort", "abort",
                    {target(ChaosAction::Abort, 1, lastModel,
                            CellOutcome::Crashed)},
                    0);
        runScenario("exit", "exit",
                    {target(ChaosAction::Exit, 2, 0, CellOutcome::Crashed)},
                    0);
        runScenario("multi-crash", "crash",
                    {target(ChaosAction::Crash, 0, 0, CellOutcome::Crashed),
                     target(ChaosAction::Crash, 3, lastModel,
                            CellOutcome::Crashed)},
                    0);
    }
    runScenario("hang", "hang",
                {target(ChaosAction::Hang, lastCipher, 0,
                        CellOutcome::TimedOut)},
                quick ? 1.0 : 2.0);

    // Resume scenario: a journaled run that crashes one cell, then a
    // second run against the same journal. Every journaled cell —
    // including the crashed one — must replay verbatim, making the
    // emitted artifacts byte-identical (the chaos point stays armed on
    // the rerun but can never fire: the cell is never re-dispatched).
    {
        const char *journalPath = "chaos_journal.bin";
        const char *json1 = "BENCH_chaos_run1.json";
        const char *json2 = "BENCH_chaos_run2.json";
        std::remove(journalPath);
        SweepOptions opts;
        opts.isolation = driver::SweepIsolation::Process;
        opts.journalPath = journalPath;
        const auto t = target(ChaosAction::Crash, 0, 0, CellOutcome::Crashed);
        opts.chaos = {t.point};
        auto run1 = driver::runCells(cells, opts);
        driver::writeBenchJson(json1, "chaos", run1);
        auto run2 = driver::runCells(cells, opts);
        driver::writeBenchJson(json2, "chaos", run2);

        Verdict v;
        v.scenario = "journal-resume";
        v.action = "crash";
        v.targets = 1;
        v.expected = "byte-identical";
        v.totalCells = run1.size();
        for (const auto &r : run2)
            if (r.ok())
                v.okCells++;
        const bool identical = slurp(json1) == slurp(json2);
        v.matched =
            identical && run2[t.point.cell].outcome == t.expected ? 1 : 0;
        v.passed = v.matched == 1 && v.okCells == v.totalCells - 1;
        verdicts.push_back(v);
        std::remove(journalPath);
        std::remove(json1);
        std::remove(json2);
    }

    std::printf("%-16s %-7s %8s %15s %8s %10s %7s\n", "Scenario",
                "Action", "faults", "expected", "matched", "ok/total",
                "result");
    std::printf("%.78s\n",
                "----------------------------------------------------"
                "--------------------------");
    bool allPassed = true;
    for (const auto &v : verdicts) {
        std::printf("%-16s %-7s %8zu %15s %5zu/%zu %7zu/%-2zu %7s\n",
                    v.scenario.c_str(), v.action.c_str(), v.targets,
                    v.expected.c_str(), v.matched, v.targets, v.okCells,
                    v.totalCells, v.passed ? "PASS" : "FAIL");
        allPassed = allPassed && v.passed;
    }

    std::ofstream out("BENCH_chaos.json");
    if (!out)
        throw std::runtime_error("cannot write BENCH_chaos.json");
    out << "{\n  \"bench\": \"chaos\",\n  \"schema\": 1,\n"
        << "  \"results\": [\n";
    for (size_t i = 0; i < verdicts.size(); i++) {
        const auto &v = verdicts[i];
        out << "    {\"scenario\": \"" << v.scenario
            << "\", \"action\": \"" << v.action
            << "\", \"targets\": " << v.targets << ", \"expected\": \""
            << v.expected << "\",\n     \"matched\": " << v.matched
            << ", \"ok_cells\": " << v.okCells
            << ", \"total_cells\": " << v.totalCells << ", \"passed\": "
            << (v.passed ? "true" : "false") << "}"
            << (i + 1 < verdicts.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"passed\": " << (allPassed ? "true" : "false")
        << "\n}\n";
    if (!out.flush())
        throw std::runtime_error("failed writing BENCH_chaos.json");

    std::printf("\n(Scenario verdicts: BENCH_chaos.json. Every fault "
                "costs exactly its own\ncell; the rest of the grid "
                "finishes with real stats, and a journaled rerun\n"
                "reproduces the first run's artifact byte for byte.)\n");
    return allPassed ? 0 : 1;
}
