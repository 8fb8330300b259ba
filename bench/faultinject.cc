/**
 * @file
 * Fault-injection coverage sweep: how much of the verification layer's
 * safety net actually catches.
 *
 * For each (cipher, variant, site) cell, a run of seeded single-bit
 * faults is injected — into architectural registers or into
 * kernel-touched data memory, mid-run — and each injection is
 * classified (src/verify/faults.hh): detected by a machine trap, by
 * the record-time oracle, or masked. The table reports detection coverage
 * (fraction not masked) per cell; per-class counts go to
 * BENCH_faults.json.
 *
 * Masked faults are not failures: a flipped bit in a stale key byte,
 * an already-consumed register, or a dead scratch word changes nothing
 * any check can observe — the measured coverage is the honest number,
 * which is why it is benched rather than asserted at 100%.
 *
 * Usage: faultinject [--quick]
 *   --quick  CI smoke mode: 2 ciphers x 1 variant, 8 injections/site.
 *
 * JSON shape (hand-rolled; this bench has tallies, not SimStats):
 *
 *   {
 *     "bench": "faults",
 *     "schema": 1,
 *     "session_bytes": N, "injections_per_cell": N,
 *     "results": [
 *       {"cipher": "...", "variant": "...", "site": "register",
 *        "injections": N, "detected_trap": N, "detected_oracle": N,
 *        "masked": N, "coverage": x}, ...
 *     ],
 *     "totals": { per-site and overall aggregate of the same fields }
 *   }
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "verify/faults.hh"

namespace
{

using namespace cryptarch;
using verify::FaultSite;
using verify::FaultTally;

constexpr FaultSite all_sites[] = {FaultSite::Register,
                                   FaultSite::Memory};

struct CellTally
{
    crypto::CipherId cipher;
    kernels::KernelVariant variant;
    FaultSite site;
    FaultTally tally;
};

void
tallyJson(std::ofstream &out, const FaultTally &t)
{
    out << "\"injections\": " << t.injections
        << ", \"detected_trap\": " << t.detectedTrap
        << ", \"detected_oracle\": " << t.detectedOracle
        << ", \"masked\": " << t.masked << ", \"coverage\": ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", t.coverage());
    out << buf;
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

    // Small sessions keep hundreds of functional runs cheap; fault
    // coverage is a per-instruction property, not a per-session one.
    const size_t bytes = 256;
    const unsigned perCell = quick ? 8 : 32;
    const std::vector<crypto::CipherId> ciphers =
        quick ? std::vector<crypto::CipherId>{crypto::CipherId::RC4,
                                              crypto::CipherId::Rijndael}
              : allCiphers();
    const std::vector<KernelVariant> variants =
        quick ? std::vector<KernelVariant>{KernelVariant::Optimized}
              : std::vector<KernelVariant>{KernelVariant::BaselineRot,
                                           KernelVariant::Optimized};

    std::printf("Fault-injection detection coverage (%s mode, %u "
                "injections/cell,\n%zu-byte sessions; detected by "
                "trap / oracle, else masked).\n\n",
                quick ? "quick" : "full", perCell, bytes);
    std::printf("%-10s %-12s %-9s %6s %6s %7s %7s %9s\n", "Cipher",
                "Variant", "Site", "inj", "trap", "oracle", "masked",
                "coverage");
    std::printf("%.73s\n",
                "----------------------------------------------------"
                "----------------------------");

    std::vector<CellTally> cells;
    FaultTally siteTotals[std::size(all_sites)];
    for (auto id : ciphers) {
        for (auto v : variants) {
            for (auto site : all_sites) {
                // Seed base separates cells so adding a cipher never
                // re-deals another cell's faults.
                const uint64_t seed0 =
                    (static_cast<uint64_t>(id) << 16)
                    + (static_cast<uint64_t>(v) << 8)
                    + static_cast<uint64_t>(site) * 41;
                auto tally = verify::injectionSweep(id, v, site, seed0,
                                                    perCell, bytes);
                std::printf(
                    "%-10s %-12s %-9s %6llu %6llu %7llu %7llu %8.1f%%\n",
                    crypto::cipherInfo(id).name.c_str(),
                    kernels::variantName(v).c_str(),
                    verify::faultSiteName(site),
                    static_cast<unsigned long long>(tally.injections),
                    static_cast<unsigned long long>(tally.detectedTrap),
                    static_cast<unsigned long long>(tally.detectedOracle),
                    static_cast<unsigned long long>(tally.masked),
                    100.0 * tally.coverage());
                cells.push_back({id, v, site, tally});
                auto &agg = siteTotals[static_cast<size_t>(site)];
                agg.injections += tally.injections;
                agg.detectedTrap += tally.detectedTrap;
                agg.detectedOracle += tally.detectedOracle;
                agg.masked += tally.masked;
            }
        }
    }

    FaultTally overall;
    std::printf("%.73s\n",
                "----------------------------------------------------"
                "----------------------------");
    for (auto site : all_sites) {
        const auto &agg = siteTotals[static_cast<size_t>(site)];
        std::printf("%-10s %-12s %-9s %6llu %6llu %7llu %7llu %8.1f%%\n",
                    "all", "all", verify::faultSiteName(site),
                    static_cast<unsigned long long>(agg.injections),
                    static_cast<unsigned long long>(agg.detectedTrap),
                    static_cast<unsigned long long>(agg.detectedOracle),
                    static_cast<unsigned long long>(agg.masked),
                    100.0 * agg.coverage());
        overall.injections += agg.injections;
        overall.detectedTrap += agg.detectedTrap;
        overall.detectedOracle += agg.detectedOracle;
        overall.masked += agg.masked;
    }

    std::ofstream out("BENCH_faults.json");
    if (!out)
        throw std::runtime_error("cannot write BENCH_faults.json");
    out << "{\n  \"bench\": \"faults\",\n  \"schema\": 1,\n"
        << "  \"session_bytes\": " << bytes
        << ", \"injections_per_cell\": " << perCell
        << ",\n  \"results\": [\n";
    for (size_t i = 0; i < cells.size(); i++) {
        const auto &c = cells[i];
        out << "    {\"cipher\": \""
            << crypto::cipherInfo(c.cipher).name << "\", \"variant\": \""
            << kernels::variantName(c.variant) << "\", \"site\": \""
            << verify::faultSiteName(c.site) << "\",\n     ";
        tallyJson(out, c.tally);
        out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"totals\": {\n";
    for (auto site : all_sites) {
        out << "    \"" << verify::faultSiteName(site) << "\": {";
        tallyJson(out, siteTotals[static_cast<size_t>(site)]);
        out << "},\n";
    }
    out << "    \"overall\": {";
    tallyJson(out, overall);
    out << "}\n  }\n}\n";
    if (!out.flush())
        throw std::runtime_error("failed writing BENCH_faults.json");

    std::printf("\n(Per-cell classification counts: BENCH_faults.json. "
                "Coverage is bounded\nby genuinely dead state — stale "
                "bytes and consumed values no check\ncan observe.)\n");
    return overall.injections ? 0 : 1;
}
