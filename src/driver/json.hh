/**
 * @file
 * Machine-readable bench results (BENCH_*.json).
 *
 * Every migrated bench emits its full sweep next to the paper-formatted
 * text table, so regenerated figures are diffable and downstream
 * tooling never has to scrape printf output. Schema (version 5):
 *
 *   {
 *     "bench": "<figure/table id>",
 *     "schema": 5,
 *     "outcomes": {"ok": N, "trapped": N, "verify_failed": N,
 *                  "error": N, "crashed": N, "timed_out": N,
 *                  "rejected": N, "stalled": N},
 *     "results": [
 *       {
 *         "cipher": "RC4",
 *         "variant": "BaselineRot",
 *         "model": "4W",
 *         "session_bytes": 4096,
 *         "direction": "decrypt",  // decrypt cells only
 *         "outcome": "ok" | "trapped" | "verify_failed" | "error"
 *                  | "crashed" | "timed_out" | "rejected" | "stalled",
 *         "message": "<error what(), present only on failed cells>",
 *         "worker": N,  // worker attribution; host-level failures only
 *         "stats": {
 *           "instructions": N, "cycles": N, "ipc": x,
 *           "cond_branches": N, "mispredicts": N,
 *           "loads": N, "stores": N,
 *           "sbox_accesses": N, "sbox_cache_hits": N,
 *           "sbox_cache_accesses": N, "sbox_cache_misses": N,
 *           "sbox_caches": [{"accesses": N, "misses": N} per cache],
 *           "class_counts": {"<OpClass name>": N, ... all 11},
 *           "stall_cycles": {"<cause>": N, ... sim/stall.hh order},
 *           "stall_by_class": {"<OpClass name>": {"<cause>": N, ...},
 *                              ... classes with nonzero stalls only},
 *           "l1":  {"accesses": N, "misses": N},
 *           "l2":  {"accesses": N, "misses": N},
 *           "tlb": {"accesses": N, "misses": N}
 *         }
 *       }, ...
 *     ]
 *   }
 *
 * Schema history: v2 added the SBox-cache access/miss totals, named
 * per-OpClass class_counts (v1 emitted an anonymous array that could
 * silently desynchronize from the enum) and the stall-attribution
 * counters. v3 added the fail-soft cell "outcome" (with "message" on
 * failed cells); failed cells keep their coordinates but carry zeroed
 * stats. v4 added the top-level "outcomes" count object (one key per
 * CellOutcome, zeros included), the "crashed"/"timed_out" outcomes
 * from process isolation, and the per-result "worker" index — emitted
 * only on cells a worker process failed (crashed, timed out, or sent
 * a corrupt record), so healthy grids remain byte-identical across
 * isolation modes, thread counts, and kill-and-resume reruns. v5 added
 * the "rejected" (config validation refused the machine model) and
 * "stalled" (the scheduler's forward-progress watchdog fired) outcomes
 * from the simulator hardening layer; both appear in the "outcomes"
 * counts and as per-result outcome values, zeroed stats as with every
 * failed cell. Still within v5, a decrypt cell's row names its
 * "direction"; encrypt rows omit the key, so encrypt-only grids write
 * the same files as before.
 *
 * All emitted strings are escaped: quote/backslash/newline/tab with
 * their short escapes, every other byte outside printable ASCII
 * (< 0x20 or >= 0x7f) as a \u00xx escape of the unsigned byte value,
 * so error messages containing arbitrary bytes cannot corrupt the
 * file.
 */

#ifndef CRYPTARCH_DRIVER_JSON_HH
#define CRYPTARCH_DRIVER_JSON_HH

#include <string>
#include <string_view>
#include <vector>

#include "driver/sweep.hh"

namespace cryptarch::driver
{

/** Serialize one SimStats as a JSON object (single line, no newline). */
std::string toJson(const sim::SimStats &stats);

/**
 * Write the schema above to @p path (conventionally
 * "BENCH_<bench>.json" in the working directory). Throws
 * std::runtime_error when the file cannot be written.
 */
void writeBenchJson(const std::string &path, std::string_view bench,
                    const std::vector<SweepResult> &results);

/**
 * Same schema, with extra per-result members: @p resultExtras[i] is a
 * raw JSON fragment ("\"key\": value, ...") spliced into result i's
 * object between "session_bytes" and "stats". Empty fragments add
 * nothing; the vector may be shorter than @p results. The simspeed
 * self-benchmark uses this for its host-side timing members.
 */
void writeBenchJson(const std::string &path, std::string_view bench,
                    const std::vector<SweepResult> &results,
                    const std::vector<std::string> &resultExtras);

} // namespace cryptarch::driver

#endif // CRYPTARCH_DRIVER_JSON_HH
