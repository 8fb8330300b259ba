/**
 * @file
 * Structural tests on the generated kernels: which opcodes each
 * variant may use, the paper's operation-expansion counts (3-insn
 * constant rotates, 4-insn variable rotates, 3-insn S-box loads), and
 * per-cipher operation-mix expectations from Figure 7.
 */

#include <gtest/gtest.h>

#include <set>

#include "kernels/kernel.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;
using crypto::CipherId;
using isa::Opcode;
using kernels::KernelVariant;
using kernels::OpCategory;
using util::Xorshift64;

kernels::KernelBuild
build(CipherId id, KernelVariant v, size_t blocks = 4)
{
    const auto &info = crypto::cipherInfo(id);
    Xorshift64 rng(99);
    auto key = rng.bytes(info.keyBits / 8);
    auto iv = rng.bytes(info.isStream ? 0 : info.blockBytes);
    return kernels::buildKernel(id, v, key, iv,
                                info.blockBytes * blocks);
}

std::set<Opcode>
opcodesOf(const kernels::KernelBuild &b)
{
    std::set<Opcode> ops;
    for (const auto &inst : b.program.insts)
        ops.insert(inst.op);
    return ops;
}

bool
usesAny(const std::set<Opcode> &ops, std::initializer_list<Opcode> which)
{
    for (auto op : which) {
        if (ops.count(op))
            return true;
    }
    return false;
}

std::vector<CipherId>
all()
{
    std::vector<CipherId> ids;
    for (const auto &i : crypto::cipherCatalog())
        ids.push_back(i.id);
    return ids;
}

TEST(KernelStructure, BaselineNoRotNeverUsesExtensions)
{
    for (auto id : all()) {
        auto ops = opcodesOf(build(id, KernelVariant::BaselineNoRot));
        EXPECT_FALSE(usesAny(ops,
                             {Opcode::Rol, Opcode::Ror, Opcode::Rol32,
                              Opcode::Ror32, Opcode::Rolx32,
                              Opcode::Rorx32, Opcode::Mulmod,
                              Opcode::Sbox, Opcode::Xbox, Opcode::Grp}))
            << crypto::cipherInfo(id).name;
    }
}

TEST(KernelStructure, BaselineRotUsesOnlyRotates)
{
    for (auto id : all()) {
        auto ops = opcodesOf(build(id, KernelVariant::BaselineRot));
        EXPECT_FALSE(usesAny(ops,
                             {Opcode::Rolx32, Opcode::Rorx32,
                              Opcode::Mulmod, Opcode::Sbox,
                              Opcode::Xbox, Opcode::Grp}))
            << crypto::cipherInfo(id).name;
    }
}

TEST(KernelStructure, RotateUsersGainRotates)
{
    // The ciphers the paper singles out as rotate users must emit
    // rotate instructions in the BaselineRot variant.
    for (auto id : {CipherId::MARS, CipherId::RC6, CipherId::Twofish,
                    CipherId::TripleDES, CipherId::Blowfish}) {
        auto ops = opcodesOf(build(id, KernelVariant::BaselineRot));
        bool has_rot =
            usesAny(ops, {Opcode::Rol32, Opcode::Ror32, Opcode::Rol,
                          Opcode::Ror});
        // Blowfish has no rotates at all in its kernel.
        if (id == CipherId::Blowfish)
            EXPECT_FALSE(has_rot);
        else
            EXPECT_TRUE(has_rot) << crypto::cipherInfo(id).name;
    }
}

TEST(KernelStructure, OptimizedUsesTheRightExtensions)
{
    // SBOX: the substitution ciphers. MULMOD: IDEA only. XBOX: 3DES
    // only. ROLX: Twofish (the paper's combining opportunity).
    auto has = [](CipherId id, Opcode op) {
        return opcodesOf(build(id, KernelVariant::Optimized)).count(op)
            > 0;
    };
    for (auto id : {CipherId::Blowfish, CipherId::Rijndael,
                    CipherId::Twofish, CipherId::MARS,
                    CipherId::TripleDES, CipherId::RC4}) {
        EXPECT_TRUE(has(id, Opcode::Sbox))
            << crypto::cipherInfo(id).name;
    }
    EXPECT_FALSE(has(CipherId::IDEA, Opcode::Sbox));
    EXPECT_FALSE(has(CipherId::RC6, Opcode::Sbox));

    for (auto id : all()) {
        EXPECT_EQ(has(id, Opcode::Mulmod), id == CipherId::IDEA)
            << crypto::cipherInfo(id).name;
        EXPECT_EQ(has(id, Opcode::Xbox), id == CipherId::TripleDES)
            << crypto::cipherInfo(id).name;
        EXPECT_FALSE(has(id, Opcode::Grp))
            << crypto::cipherInfo(id).name;
    }
    EXPECT_TRUE(has(CipherId::Twofish, Opcode::Rolx32));
}

TEST(KernelStructure, GrpVariantUsesGrpOnlyFor3Des)
{
    for (auto id : all()) {
        auto ops = opcodesOf(build(id, KernelVariant::OptimizedGrp));
        EXPECT_EQ(ops.count(Opcode::Grp) > 0, id == CipherId::TripleDES)
            << crypto::cipherInfo(id).name;
        EXPECT_EQ(ops.count(Opcode::Xbox), 0u)
            << crypto::cipherInfo(id).name;
    }
}

TEST(KernelStructure, VariantSizeOrdering)
{
    // norot >= rot >= optimized in static size, for every cipher.
    for (auto id : all()) {
        auto norot = build(id, KernelVariant::BaselineNoRot);
        auto rot = build(id, KernelVariant::BaselineRot);
        auto opt = build(id, KernelVariant::Optimized);
        EXPECT_GE(norot.program.size(), rot.program.size())
            << crypto::cipherInfo(id).name;
        // RC6's only gain beyond rotates is the faster multiply, an
        // equal-count substitution, so allow equality there.
        if (id == CipherId::RC6)
            EXPECT_GE(rot.program.size(), opt.program.size());
        else
            EXPECT_GT(rot.program.size(), opt.program.size())
                << crypto::cipherInfo(id).name;
    }
}

TEST(KernelStructure, RotateSynthesisCosts)
{
    // Mars uses fixed rotates heavily: the rotate-less kernel must pay
    // about 2 extra instructions per rotate relative to BaselineRot.
    auto norot = build(CipherId::MARS, KernelVariant::BaselineNoRot, 1);
    auto rot = build(CipherId::MARS, KernelVariant::BaselineRot, 1);
    size_t rotates = 0;
    for (const auto &inst : rot.program.insts) {
        if (inst.op == Opcode::Rol32 || inst.op == Opcode::Ror32)
            rotates++;
    }
    ASSERT_GT(rotates, 30u); // 24 mixing + 16*4 core rotates per block
    size_t delta = norot.program.size() - rot.program.size();
    // Constant rotates add 2, variable rotates add 3.
    EXPECT_GE(delta, 2 * rotates);
    EXPECT_LE(delta, 3 * rotates);
}

TEST(KernelStructure, Figure7FamiliesInStaticMix)
{
    // Static category counts already show the paper's two families.
    auto fraction = [](CipherId id, OpCategory cat) {
        auto b = build(id, KernelVariant::BaselineRot, 2);
        size_t n = 0;
        for (auto c : b.categories)
            n += (c == cat);
        return static_cast<double>(n) / b.categories.size();
    };
    // Computational family: IDEA multiplies dominate.
    EXPECT_GT(fraction(CipherId::IDEA, OpCategory::Multiply), 0.4);
    EXPECT_EQ(fraction(CipherId::IDEA, OpCategory::Substitution), 0.0);
    // Substitution family.
    for (auto id : {CipherId::Blowfish, CipherId::Rijndael,
                    CipherId::Twofish, CipherId::TripleDES}) {
        EXPECT_GT(fraction(id, OpCategory::Substitution), 0.35)
            << crypto::cipherInfo(id).name;
    }
    // Only 3DES permutes.
    for (auto id : all()) {
        double f = fraction(id, OpCategory::Permute);
        if (id == CipherId::TripleDES) {
            EXPECT_GT(f, 0.0);
        } else {
            EXPECT_EQ(f, 0.0) << crypto::cipherInfo(id).name;
        }
    }
}

TEST(KernelStructure, SboxTablesAreFrameAligned)
{
    // Every memory region that an optimized kernel's SBOX reads must
    // start on a 1 KB boundary (the SBOX addressing requirement).
    for (auto id : all()) {
        auto b = build(id, KernelVariant::Optimized);
        bool uses_sbox = false;
        for (const auto &inst : b.program.insts)
            uses_sbox |= inst.op == Opcode::Sbox;
        if (!uses_sbox)
            continue;
        for (const auto &[addr, bytes] : b.memInit) {
            if (addr >= 0x1000 && addr < 0x8000) { // table region
                EXPECT_EQ(addr % 1024, 0u)
                    << crypto::cipherInfo(id).name;
            }
        }
    }
}

TEST(KernelStructure, LoopHeadRunsOncePerBlock)
{
    // The block loop's head splits a trace into prologue and one
    // iteration per block, which is what replay fast-forward keys on.
    const size_t bytes = 4096;
    for (auto id : all()) {
        const auto &info = crypto::cipherInfo(id);
        const size_t blocks = bytes / (info.isStream ? 8 : info.blockBytes);
        for (auto v : {KernelVariant::BaselineNoRot,
                       KernelVariant::BaselineRot, KernelVariant::Optimized,
                       KernelVariant::OptimizedGrp,
                       KernelVariant::OptimizedFused}) {
            for (auto dir : {kernels::KernelDirection::Encrypt,
                             kernels::KernelDirection::Decrypt}) {
                Xorshift64 rng(7);
                auto key = rng.bytes(info.keyBits / 8);
                auto iv = rng.bytes(info.isStream ? 0 : info.blockBytes);
                auto b = kernels::buildKernel(id, v, key, iv, bytes, dir);
                ASSERT_TRUE(b.loopHead.has_value()) << b.name;
                const uint32_t head = *b.loopHead;
                bool targeted = false;
                for (const auto &d : isa::decode(b.program))
                    targeted |= d.conditional && d.target == head;
                EXPECT_TRUE(targeted) << b.name;

                struct HeadCounter : isa::TraceSink
                {
                    uint32_t head = 0;
                    uint64_t hits = 0;
                    void
                    emit(const isa::DynInst &inst) override
                    {
                        hits += inst.pc == head;
                    }
                } counter;
                counter.head = head;
                isa::Machine m;
                b.install(m, kernels::toWordImage(id, rng.bytes(bytes)));
                m.run(b.program, &counter, 1ull << 32);
                EXPECT_EQ(counter.hits, blocks) << b.name;
            }
        }
    }
}

TEST(KernelStructure, ProgramsTerminateWithHalt)
{
    for (auto id : all()) {
        for (auto v : {KernelVariant::BaselineNoRot,
                       KernelVariant::BaselineRot,
                       KernelVariant::Optimized}) {
            auto b = build(id, v);
            ASSERT_FALSE(b.program.insts.empty());
            EXPECT_EQ(b.program.insts.back().op, Opcode::Halt)
                << b.name;
        }
    }
}

} // namespace
