/**
 * @file
 * Regenerates paper Figure 5: single-bottleneck analysis.
 *
 * Starting from the dataflow machine, exactly one constraint is
 * re-inserted at a time (alias ordering, branch prediction, 4-wide
 * issue, real memory, baseline functional units, 128-entry window),
 * plus "All" (the full 4W model). Bars are performance relative to
 * the dataflow machine (1.00 = dataflow speed).
 *
 * One functional pass per cipher: the recorded trace replays into all
 * eight models (DF + 7) in parallel via the bench driver. Per-model
 * SimStats: BENCH_fig05.json.
 *
 * A companion report prints the *measured* stall attribution from the
 * 4W run of the same sweep (sim/stall.hh): the per-cause cycle totals
 * the scheduler accumulated directly, next to the exclusion-style
 * bars. Both must tell the same story.
 *
 * Paper shape: branch prediction and memory never matter; window and
 * alias only matter for RC4; issue width and resources are the common
 * bottlenecks, largest for Rijndael and RC4.
 */

#include <algorithm>
#include <cstdio>

#include "bench/common.hh"
#include "sim/stall.hh"

int
main(int argc, char **argv)
{
    using namespace cryptarch;
    using namespace cryptarch::bench;

    auto variant = kernels::KernelVariant::BaselineRot;
    const char *labels[] = {"Alias", "Branch", "Issue", "Mem",
                            "Res",   "Window", "All"};
    const char *models[] = {"DF+Alias", "DF+Branch", "DF+Issue",
                            "DF+Mem",   "DF+Res",    "DF+Window", "4W"};

    auto results =
        driver::runSweep(driver::fig05Spec(), sweepOptions(argc, argv));

    std::printf("Figure 5. Analysis of Bottlenecks in Cipher Kernels\n"
                "(performance relative to the dataflow machine; "
                "original kernels with rotates).\n\n");
    std::printf("%-10s", "Cipher");
    for (const char *l : labels)
        std::printf("%8s", l);
    std::printf("\n%.66s\n",
                "----------------------------------------------------"
                "--------------");

    for (auto id : allCiphers()) {
        const auto &info = crypto::cipherInfo(id);
        const auto &df = driver::findResult(results, id, variant, "DF");
        std::printf("%-10s", info.name.c_str());
        for (const char *model : models) {
            const auto &s = driver::findResult(results, id, variant, model);
            std::printf("%8s",
                        gridCell(df.ok() && s.ok(), "%.2f",
                                 static_cast<double>(df.stats.cycles)
                                     / static_cast<double>(
                                         std::max<uint64_t>(
                                             s.stats.cycles, 1)))
                            .c_str());
        }
        std::printf("\n");
    }

    // ----- companion: measured stall attribution on the 4W model -----
    // The exclusion bars above infer each bottleneck from a separate
    // simulation; the columns below are the per-cause stall cycles the
    // same sweep's 4W scheduler attributed directly, as a percentage
    // of that cipher's total attributed stall cycles. "Dep" (operand
    // dependence + producer memory latency) is the dataflow floor the
    // DF machine pays too; everything else is machine-imposed and must
    // rank like the exclusion bars.
    using sim::StallCause;
    auto causeSum = [](const sim::SimStats &s,
                       std::initializer_list<StallCause> causes) {
        uint64_t sum = 0;
        for (auto c : causes)
            sum += s.stallCycles[static_cast<size_t>(c)];
        return sum;
    };

    std::printf("\nCompanion: measured stall attribution, 4W model\n"
                "(per cause, %% of the cipher's total attributed "
                "stall cycles; Dep = dataflow floor)\n\n");
    std::printf("%-10s%8s%8s%8s%8s%8s%8s%8s%8s\n", "Cipher", "Dep",
                "Mem", "Alias", "Sync", "Window", "Redir", "Issue",
                "FU");
    std::printf("%.74s\n",
                "----------------------------------------------------"
                "----------------------");
    for (auto id : allCiphers()) {
        const auto &info = crypto::cipherInfo(id);
        const auto &r4 = driver::findResult(results, id, variant, "4W");
        if (!r4.ok()) {
            std::printf("%-10s%8s\n", info.name.c_str(), "FAIL");
            continue;
        }
        const auto &s = r4.stats;
        uint64_t total = s.totalStallCycles();
        double denom = total ? static_cast<double>(total) : 1.0;
        auto pct = [&](std::initializer_list<StallCause> causes) {
            return 100.0 * static_cast<double>(causeSum(s, causes))
                / denom;
        };
        std::printf(
            "%-10s%7.1f%%%7.1f%%%7.1f%%%7.1f%%%7.1f%%%7.1f%%%7.1f%%"
            "%7.1f%%\n",
            info.name.c_str(), pct({StallCause::Operand}),
            pct({StallCause::MemLatency}), pct({StallCause::StoreAlias}),
            pct({StallCause::SboxVisibility}),
            pct({StallCause::WindowFull}),
            pct({StallCause::FetchRedirect}), pct({StallCause::IssueSlot}),
            pct({StallCause::FuAlu, StallCause::FuRot, StallCause::FuMul,
                 StallCause::FuDcache, StallCause::FuSbox}));
    }
    std::printf("\n(Same story as the bars: among the machine-imposed "
                "causes, issue width and FU\ncontention are the common "
                "bottlenecks; alias and window matter only for RC4;\n"
                "redirects and memory never do. Ciphers whose bars sit "
                "at 1.00 show a pure\ndataflow floor.)\n");

    driver::writeBenchJson("BENCH_fig05.json", "fig05", results);
    std::printf("\n(1.00 = dataflow speed; lower = that bottleneck "
                "alone costs performance.\nPer-model stats: "
                "BENCH_fig05.json.)\n");
    return reportFailedCells(results);
}
