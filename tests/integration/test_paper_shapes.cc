/**
 * @file
 * Integration tests pinning the paper's headline claims, so the
 * reproduction cannot silently regress. Small sessions keep them
 * fast; the benches produce the full-figure numbers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "driver/grids.hh"
#include "driver/trace.hh"
#include "driver/workload.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"
#include "ssl/session.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using crypto::CipherId;
using kernels::KernelVariant;
using sim::MachineConfig;
using util::Xorshift64;

constexpr size_t session = 1024;

sim::SimStats
run(CipherId id, KernelVariant v, const MachineConfig &cfg,
    size_t bytes = session)
{
    const auto &info = crypto::cipherInfo(id);
    Xorshift64 rng(0xF00 + static_cast<int>(id));
    auto key = rng.bytes(info.keyBits / 8);
    auto iv = rng.bytes(info.isStream ? 0 : info.blockBytes);
    auto build = kernels::buildKernel(id, v, key, iv, bytes);
    isa::Machine m;
    auto pt = rng.bytes(bytes);
    build.install(m, kernels::toWordImage(id, pt));
    sim::OooScheduler sched(cfg);
    m.run(build.program, &sched, 1ull << 32);
    return sched.finish();
}

// Figure 4: 3DES is the slowest cipher; RC4 is the fastest, by ~10x.
TEST(PaperShapes, Fig4ThroughputOrdering)
{
    auto des = run(CipherId::TripleDES, KernelVariant::BaselineRot,
                   MachineConfig::fourWide());
    auto rc4 = run(CipherId::RC4, KernelVariant::BaselineRot,
                   MachineConfig::fourWide());
    double ratio = static_cast<double>(des.cycles) / rc4.cycles;
    EXPECT_GT(ratio, 6.0);
    for (auto id : {CipherId::Blowfish, CipherId::IDEA, CipherId::MARS,
                    CipherId::RC6, CipherId::Rijndael,
                    CipherId::Twofish}) {
        auto s = run(id, KernelVariant::BaselineRot,
                     MachineConfig::fourWide());
        EXPECT_LT(s.cycles, des.cycles) << crypto::cipherInfo(id).name;
        EXPECT_GT(s.cycles, rc4.cycles) << crypto::cipherInfo(id).name;
    }
}

// Figure 4/5: Blowfish, IDEA and RC6 run near dataflow speed on 4W.
TEST(PaperShapes, NearDataflowCiphers)
{
    for (auto id : {CipherId::Blowfish, CipherId::IDEA, CipherId::RC6}) {
        auto w4 = run(id, KernelVariant::BaselineRot,
                      MachineConfig::fourWide());
        auto df = run(id, KernelVariant::BaselineRot,
                      MachineConfig::dataflow());
        EXPECT_LT(static_cast<double>(w4.cycles) / df.cycles, 1.25)
            << crypto::cipherInfo(id).name;
    }
}

// Figure 5: branch prediction is never a bottleneck; aliasing and
// window size matter only for RC4.
TEST(PaperShapes, Fig5BottleneckStory)
{
    for (auto id : {CipherId::TripleDES, CipherId::RC4,
                    CipherId::Rijndael, CipherId::Twofish}) {
        auto df = run(id, KernelVariant::BaselineRot,
                      MachineConfig::dataflow());
        auto branch = run(id, KernelVariant::BaselineRot,
                          MachineConfig::dfPlusBranch());
        EXPECT_LT(static_cast<double>(branch.cycles) / df.cycles, 1.05)
            << crypto::cipherInfo(id).name;

        auto alias = run(id, KernelVariant::BaselineRot,
                         MachineConfig::dfPlusAlias());
        double alias_cost = static_cast<double>(alias.cycles) / df.cycles;
        if (id == CipherId::RC4)
            EXPECT_GT(alias_cost, 1.5);
        else
            EXPECT_LT(alias_cost, 1.10)
                << crypto::cipherInfo(id).name;
    }
}

// Figure 10: the optimized kernels beat the rotate baseline on 4W for
// every cipher, IDEA gains the most, RC6 the least.
TEST(PaperShapes, Fig10SpeedupOrdering)
{
    double best = 0, worst = 10, idea_speedup = 0, rc6_speedup = 10;
    for (const auto &info : crypto::cipherCatalog()) {
        auto base = run(info.id, KernelVariant::BaselineRot,
                        MachineConfig::fourWide());
        auto opt = run(info.id, KernelVariant::Optimized,
                       MachineConfig::fourWide());
        double speedup = static_cast<double>(base.cycles) / opt.cycles;
        EXPECT_GE(speedup, 0.99) << info.name;
        best = std::max(best, speedup);
        worst = std::min(worst, speedup);
        if (info.id == CipherId::IDEA)
            idea_speedup = speedup;
        if (info.id == CipherId::RC6)
            rc6_speedup = speedup;
    }
    EXPECT_EQ(best, idea_speedup) << "IDEA must gain the most (MULMOD)";
    // RC6 gains modestly beyond rotates (the paper: "only slightly"
    // from fast modular multiplication). In this reproduction its
    // early-out multiply benefit puts it level with 3DES at the
    // bottom rather than strictly last.
    EXPECT_LT(rc6_speedup, 1.45) << "RC6 gains must stay modest";
    EXPECT_GT(worst, 0.99);
    EXPECT_GT(idea_speedup, 1.8);
}

// EXPERIMENTS.md's Figure 2 table, cell for cell: the default
// RSA-1024/3DES session model's public/private/other shares, each
// formatted "%.1f" exactly as bench/fig02_ssl_breakdown prints it.
TEST(PaperShapes, Fig02ExperimentsTable)
{
    struct Row
    {
        size_t kb;
        std::array<const char *, 3> cells; // public, private, other
    };
    const Row experiments[] = {
        {1, {"76.3", "4.1", "19.6"}},
        {4, {"68.3", "13.8", "17.9"}},
        {32, {"34.4", "54.5", "11.1"}},
        {128, {"12.8", "80.6", "6.7"}},
    };
    auto onePlace = [](double fraction) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", 100.0 * fraction);
        return std::string(buf);
    };

    ssl::SessionModel model(CipherId::TripleDES);
    for (const auto &row : experiments) {
        const auto c = model.cost(row.kb * 1024);
        EXPECT_EQ(onePlace(c.publicFraction()), row.cells[0]) << row.kb;
        EXPECT_EQ(onePlace(c.privateFraction()), row.cells[1]) << row.kb;
        EXPECT_EQ(onePlace(c.otherFraction()), row.cells[2]) << row.kb;
    }
}

std::string
twoPlaces(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

// EXPERIMENTS.md's Figure 5 table, cell for cell: the fig05 grid, each
// DF/DF+X ratio formatted "%.2f" exactly as bench/fig05_bottlenecks
// prints it, plus the exact DF+Res and DF+Issue cycle counts — the two
// isolation models whose resource scans skip known-full cycles.
TEST(PaperShapes, Fig05ExperimentsTable)
{
    struct Row
    {
        CipherId id;
        std::array<const char *, 7> cells; // Alias .. All
        uint64_t resCycles;
        uint64_t issueCycles;
    };
    const Row experiments[] = {
        {CipherId::TripleDES,
         {"1.00", "1.00", "0.80", "0.98", "0.86", "1.00", "0.79"},
         360952, 386506},
        {CipherId::Blowfish,
         {"1.00", "1.00", "0.97", "0.95", "0.99", "1.00", "0.94"},
         79381, 80397},
        {CipherId::IDEA,
         {"1.00", "1.00", "1.00", "1.00", "1.00", "1.00", "1.00"},
         157707, 157708},
        {CipherId::MARS,
         {"1.00", "1.00", "1.00", "0.97", "1.00", "1.00", "0.97"},
         77579, 77581},
        {CipherId::RC4,
         {"0.33", "1.00", "0.41", "0.98", "0.61", "0.80", "0.28"},
         13530, 20011},
        {CipherId::RC6,
         {"1.00", "1.00", "1.00", "1.00", "1.00", "1.00", "1.00"},
         67337, 67339},
        {CipherId::Rijndael,
         {"1.00", "1.00", "0.52", "0.93", "0.71", "1.00", "0.50"},
         33790, 46099},
        {CipherId::Twofish,
         {"1.00", "1.00", "0.77", "0.94", "0.84", "1.00", "0.73"},
         56338, 61181},
    };
    const std::array<const char *, 7> models = {
        "DF+Alias", "DF+Branch", "DF+Issue", "DF+Mem",
        "DF+Res",   "DF+Window", "4W"};

    const auto variant = KernelVariant::BaselineRot;
    const auto results = driver::runSweep(driver::fig05Spec());
    for (const auto &row : experiments) {
        const auto &name = crypto::cipherInfo(row.id).name;
        const auto &df = driver::findResult(results, row.id, variant, "DF");
        ASSERT_TRUE(df.ok()) << name << ": " << df.message;
        for (size_t c = 0; c < models.size(); c++) {
            const auto &r =
                driver::findResult(results, row.id, variant, models[c]);
            ASSERT_TRUE(r.ok()) << name << " " << models[c] << ": "
                                << r.message;
            EXPECT_EQ(twoPlaces(static_cast<double>(df.stats.cycles)
                                / static_cast<double>(r.stats.cycles)),
                      row.cells[c])
                << name << " " << models[c];
        }
        EXPECT_EQ(driver::findResult(results, row.id, variant, "DF+Res")
                      .stats.cycles,
                  row.resCycles)
            << name;
        EXPECT_EQ(driver::findResult(results, row.id, variant, "DF+Issue")
                      .stats.cycles,
                  row.issueCycles)
            << name;
    }
}

// README's Figure 10 table, cell for cell: the full 4 KB fig10 grid,
// each speedup formatted "%.2f" exactly as bench/fig10_speedup prints
// it, plus the Orig/4W and Opt/4W geomean row.
TEST(PaperShapes, Fig10ReadmeTable)
{
    struct Row
    {
        CipherId id;
        std::array<const char *, 5> cells; // Orig/4W .. Opt/DF
    };
    const Row readme[] = {
        {CipherId::TripleDES, {"0.94", "1.41", "1.42", "1.56", "1.77"}},
        {CipherId::Blowfish, {"1.00", "1.41", "1.60", "1.61", "1.75"}},
        {CipherId::IDEA, {"1.00", "2.20", "2.20", "2.20", "2.21"}},
        {CipherId::MARS, {"0.80", "1.45", "1.54", "1.56", "1.63"}},
        {CipherId::RC4, {"1.00", "1.08", "1.08", "1.41", "3.58"}},
        {CipherId::RC6, {"0.81", "1.29", "1.29", "1.29", "1.30"}},
        {CipherId::Rijndael, {"1.00", "1.61", "1.73", "2.74", "3.41"}},
        {CipherId::Twofish, {"1.00", "1.37", "1.60", "1.83", "2.01"}},
    };
    const std::array<std::pair<KernelVariant, const char *>, 5> columns =
        {{{KernelVariant::BaselineNoRot, "4W"},
          {KernelVariant::Optimized, "4W"},
          {KernelVariant::Optimized, "4W+"},
          {KernelVariant::Optimized, "8W+"},
          {KernelVariant::Optimized, "DF"}}};

    const auto results = driver::runCells(driver::fig10Cells());
    double prod_orig = 1.0, prod_opt4 = 1.0;
    for (const auto &row : readme) {
        const auto &name = crypto::cipherInfo(row.id).name;
        const auto &base = driver::findResult(
            results, row.id, KernelVariant::BaselineRot, "4W");
        ASSERT_TRUE(base.ok()) << name << ": " << base.message;
        const double b = static_cast<double>(base.stats.cycles);
        for (size_t c = 0; c < columns.size(); c++) {
            const auto &r = driver::findResult(
                results, row.id, columns[c].first, columns[c].second);
            ASSERT_TRUE(r.ok()) << name << ": " << r.message;
            const double speedup = b / static_cast<double>(r.stats.cycles);
            EXPECT_EQ(twoPlaces(speedup), row.cells[c])
                << name << " column " << c;
            if (c == 0)
                prod_orig *= speedup;
            if (c == 1)
                prod_opt4 *= speedup;
        }
    }
    const double n = std::size(readme);
    EXPECT_EQ(twoPlaces(std::pow(prod_orig, 1.0 / n)), "0.94");
    EXPECT_EQ(twoPlaces(std::pow(prod_opt4, 1.0 / n)), "1.45");
}

// Figure 10, Orig/4W: losing rotates hurts Mars and RC6 the most.
TEST(PaperShapes, RotateLossHurtsMarsAndRc6Most)
{
    double mars_slow = 0, rc6_slow = 0;
    for (const auto &info : crypto::cipherCatalog()) {
        auto rot = run(info.id, KernelVariant::BaselineRot,
                       MachineConfig::fourWide());
        auto norot = run(info.id, KernelVariant::BaselineNoRot,
                         MachineConfig::fourWide());
        double slowdown = static_cast<double>(norot.cycles) / rot.cycles;
        if (info.id == CipherId::MARS)
            mars_slow = slowdown;
        else if (info.id == CipherId::RC6)
            rc6_slow = slowdown;
        else
            EXPECT_LT(slowdown, 1.15) << info.name;
    }
    EXPECT_GT(mars_slow, 1.15);
    EXPECT_GT(rc6_slow, 1.10);
}

// Section 6: Rijndael and Twofish saturate 4-wide issue; the 8-wide
// machine unlocks them.
TEST(PaperShapes, WideMachineUnlocksRijndael)
{
    auto w4p = run(CipherId::Rijndael, KernelVariant::Optimized,
                   MachineConfig::fourWidePlus());
    auto w8p = run(CipherId::Rijndael, KernelVariant::Optimized,
                   MachineConfig::eightWidePlus());
    EXPECT_GT(static_cast<double>(w4p.cycles) / w8p.cycles, 1.3);
}

// Figure 2 prerequisite: 3DES on a 1 GHz part cannot saturate a T3
// line (~5.6 MB/s) with much headroom — the paper's motivating claim.
TEST(PaperShapes, TripleDesBarelySaturatesT3)
{
    auto s = run(CipherId::TripleDES, KernelVariant::BaselineRot,
                 MachineConfig::fourWide(), 4096);
    double mbps_at_1ghz = 1e9 / (static_cast<double>(s.cycles) / 4096)
        / 1e6;
    EXPECT_LT(mbps_at_1ghz, 25.0); // nowhere near 100 Mb/s Ethernet x2
    EXPECT_GT(mbps_at_1ghz, 5.0);  // but does cover a T3 (5.6 MB/s)
}

// ablation_resources' issue-width sweep: every 2-wide cell runs (its
// 1-slot multiplier pool is admissible, and the optimized kernels
// issue no 64-bit MULQ), and Mars gains the 35% EXPERIMENTS.md quotes
// going from 2- to 4-wide.
TEST(PaperShapes, IssueWidthAblation)
{
    std::vector<driver::SweepCell> cells;
    for (auto id : driver::allCiphers())
        for (unsigned w : {2u, 4u})
            cells.push_back({id, KernelVariant::Optimized,
                             driver::issueWidthConfig(w),
                             driver::session_bytes});
    const auto results = driver::runCells(cells);
    for (const auto &r : results)
        EXPECT_TRUE(r.ok()) << crypto::cipherInfo(r.cipher).name << " "
                            << r.model << ": " << r.message;

    const auto &w2 = driver::findResult(results, CipherId::MARS,
                                        KernelVariant::Optimized, "2-wide");
    const auto &w4 = driver::findResult(results, CipherId::MARS,
                                        KernelVariant::Optimized, "4-wide");
    const double gain = static_cast<double>(w2.stats.cycles)
        / static_cast<double>(w4.stats.cycles) - 1.0;
    EXPECT_EQ(std::lround(100 * gain), 35) << gain;
}

// EXPERIMENTS.md's ablation_permute sentence: at 4 KB on 4W, the GRP
// 3DES kernel is 18 static instructions smaller than the XBOX kernel
// and lands within 0.6% of its cycle count, at 14.65 vs 14.73
// bytes/kcycle ("%.2f", as bench/ablation_permute prints it).
TEST(PaperShapes, AblationPermuteExperimentsSentence)
{
    const CipherId id = CipherId::TripleDES;
    driver::SweepSpec spec;
    spec.ciphers = {id};
    spec.variants = {KernelVariant::Optimized, KernelVariant::OptimizedGrp};
    spec.models = {MachineConfig::fourWide()};
    const auto results = driver::runSweep(spec);

    auto static_insts = [&](KernelVariant v) {
        const auto w = driver::makeWorkload(id);
        return kernels::buildKernel(id, v, w.key, w.iv,
                                    driver::session_bytes)
            .program.size();
    };
    EXPECT_EQ(static_insts(KernelVariant::Optimized)
                  - static_insts(KernelVariant::OptimizedGrp),
              18u);

    const auto &xbox =
        driver::findResult(results, id, KernelVariant::Optimized, "4W");
    const auto &grp =
        driver::findResult(results, id, KernelVariant::OptimizedGrp, "4W");
    ASSERT_TRUE(xbox.ok()) << xbox.message;
    ASSERT_TRUE(grp.ok()) << grp.message;
    auto per_kcycle = [](const driver::SweepResult &r) {
        return twoPlaces(1000.0 * static_cast<double>(r.bytes)
                         / static_cast<double>(r.stats.cycles));
    };
    EXPECT_EQ(per_kcycle(grp), "14.65");
    EXPECT_EQ(per_kcycle(xbox), "14.73");
    char gap[32];
    std::snprintf(gap, sizeof(gap), "%.1f",
                  100.0 * (static_cast<double>(grp.stats.cycles)
                               / static_cast<double>(xbox.stats.cycles)
                           - 1.0));
    EXPECT_STREQ(gap, "0.6");
}

// EXPERIMENTS.md's ablation_fused sentence: SBOXX runs 10-27% fewer
// instructions on the substitution ciphers (whole percent of
// bench/ablation_fused's "%.1f%%" column), and Rijndael gains 23% on
// 4W+.
TEST(PaperShapes, AblationFusedExperimentsSentence)
{
    const std::vector<CipherId> ids = {CipherId::Blowfish,
                                       CipherId::Rijndael,
                                       CipherId::Twofish,
                                       CipherId::TripleDES};
    driver::SweepSpec spec;
    spec.ciphers = ids;
    spec.variants = {KernelVariant::Optimized,
                     KernelVariant::OptimizedFused};
    spec.models = {MachineConfig::fourWidePlus()};
    const auto results = driver::runSweep(spec);

    long lo = 100, hi = 0;
    for (auto id : ids) {
        const auto &opt =
            driver::findResult(results, id, KernelVariant::Optimized, "4W+");
        const auto &fused = driver::findResult(
            results, id, KernelVariant::OptimizedFused, "4W+");
        ASSERT_TRUE(opt.ok()) << opt.message;
        ASSERT_TRUE(fused.ok()) << fused.message;
        const long saved = std::lround(
            100.0 * (1.0 - static_cast<double>(fused.stats.instructions)
                               / opt.stats.instructions));
        lo = std::min(lo, saved);
        hi = std::max(hi, saved);
        if (id == CipherId::Rijndael) {
            EXPECT_EQ(twoPlaces(static_cast<double>(opt.stats.cycles)
                                / fused.stats.cycles),
                      "1.23");
        }
    }
    EXPECT_EQ(lo, 10);
    EXPECT_EQ(hi, 27);
}


// EXPERIMENTS.md's footnote-1 sentence: decrypt/encrypt cycle ratios
// on 4W span 0.61-1.10, the dataflow-speed ciphers (3DES, Mars,
// Rijndael) span 0.92-1.10 ("%.2f", as bench/decrypt_symmetry prints
// them), and Blowfish/IDEA/RC6 decryption runs up to 1.6x faster.
TEST(PaperShapes, DecryptSymmetryExperimentsSentence)
{
    using kernels::KernelDirection;
    std::vector<driver::SweepCell> cells;
    for (auto id : driver::allCiphers())
        for (auto v : {KernelVariant::BaselineRot, KernelVariant::Optimized})
            for (auto dir : {KernelDirection::Encrypt,
                             KernelDirection::Decrypt})
                cells.push_back({id, v, MachineConfig::fourWide(),
                                 driver::session_bytes, dir});
    const auto results = driver::runCells(cells);

    double lo = 10, hi = 0, flat_lo = 10, flat_hi = 0, speedup = 0;
    for (size_t i = 0; i < results.size(); i += 2) {
        const auto &enc = results[i];
        const auto &dec = results[i + 1];
        ASSERT_TRUE(enc.ok()) << enc.message;
        ASSERT_TRUE(dec.ok()) << dec.message;
        const double ratio = static_cast<double>(dec.stats.cycles)
            / static_cast<double>(enc.stats.cycles);
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
        if (enc.cipher == CipherId::TripleDES
            || enc.cipher == CipherId::MARS
            || enc.cipher == CipherId::Rijndael) {
            flat_lo = std::min(flat_lo, ratio);
            flat_hi = std::max(flat_hi, ratio);
        }
        if (enc.cipher == CipherId::Blowfish || enc.cipher == CipherId::IDEA
            || enc.cipher == CipherId::RC6)
            speedup = std::max(speedup, 1.0 / ratio);
    }
    EXPECT_EQ(twoPlaces(lo), "0.61");
    EXPECT_EQ(twoPlaces(hi), "1.10");
    EXPECT_EQ(twoPlaces(flat_lo), "0.92");
    EXPECT_EQ(twoPlaces(flat_hi), "1.10");
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.1f", speedup);
    EXPECT_STREQ(buf, "1.6");
}

// EXPERIMENTS.md's Figure 6 outlier, measured as bench/fig06_setup_cost
// measures it: the Blowfish key-setup kernel, recorded and replayed on
// 4W, takes 84.8k cycles, 50.4% of a 4 KB BaselineRot session and the
// work of encrypting 4.1 KB of payload.
TEST(PaperShapes, Fig06BlowfishSetupKernel)
{
    const driver::Workload w = driver::makeWorkload(CipherId::Blowfish);
    const auto setup =
        kernels::buildBlowfishSetupKernel(KernelVariant::BaselineRot, w.key);
    isa::Machine m;
    for (const auto &[addr, bytes] : setup.memInit)
        m.writeMem(addr, bytes);
    driver::RecordedTrace trace(setup.program, setup.loopHead);
    m.run(setup.program, &trace);
    const sim::SimStats s = trace.replay(MachineConfig::fourWide());
    EXPECT_EQ(s.cycles, 84794u);
    EXPECT_EQ(s.instructions, 146443u);

    const sim::SimStats session =
        driver::recordKernelTrace(CipherId::Blowfish,
                                  KernelVariant::BaselineRot)
            .replay(MachineConfig::fourWide());
    const double cpb = static_cast<double>(session.cycles)
        / static_cast<double>(driver::session_bytes);
    const double cycles = static_cast<double>(s.cycles);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f %.1f %.1f", cycles / 1000.0,
                  100.0 * cycles / (cycles + cpb * 4096),
                  cycles / cpb / 1024.0);
    EXPECT_STREQ(buf, "84.8 50.4 4.1");
}

} // namespace
