/** @file Functional tests for the CryptISA interpreter. */

#include <gtest/gtest.h>

#include "crypto/idea.hh"
#include "isa/machine.hh"
#include "util/bitops.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch::isa;
using cryptarch::util::rotl32;
using cryptarch::util::Xorshift64;

constexpr Reg r0{0}, r1{1}, r2{2}, r3{3}, r4{4}, r5{5};

/** Run a single-result program and return the value left in r0. */
uint64_t
runProgram(Assembler &a, Machine &m)
{
    a.halt();
    Program p = a.finalize();
    m.run(p);
    return m.reg(r0);
}

TEST(Machine, AluBasics)
{
    Machine m;
    m.setReg(r1, 10);
    m.setReg(r2, 3);
    Assembler a;
    a.addq(r1, r2, r0);
    EXPECT_EQ(runProgram(a, m), 13u);

    Assembler s;
    s.subq(r1, r2, r0);
    EXPECT_EQ(runProgram(s, m), 7u);

    Assembler x;
    x.xor_(r1, r2, r0);
    EXPECT_EQ(runProgram(x, m), 9u);
}

TEST(Machine, ZeroRegisterIsImmutable)
{
    Machine m;
    Assembler a;
    a.li(42, reg_zero);
    a.addq(reg_zero, 1, r0);
    EXPECT_EQ(runProgram(a, m), 1u);
}

TEST(Machine, Addl32BitWrap)
{
    Machine m;
    m.setReg(r1, 0xFFFFFFFFull);
    m.setReg(r2, 2);
    Assembler a;
    a.addl(r1, r2, r0);
    EXPECT_EQ(runProgram(a, m), 1u);
}

TEST(Machine, Shift32ZeroExtends)
{
    Machine m;
    m.setReg(r1, 0x80000001ull);
    Assembler a;
    a.sll32(r1, 1, r0);
    EXPECT_EQ(runProgram(a, m), 2u); // top bit shifted out, not into bit 32

    Machine m2;
    m2.setReg(r1, 0x80000000ull);
    Assembler b;
    b.srl32(r1, 31, r0);
    EXPECT_EQ(runProgram(b, m2), 1u);
}

TEST(Machine, ExtblExtractsBytes)
{
    Machine m;
    m.setReg(r1, 0x0807060504030201ull);
    for (int i = 0; i < 8; i++) {
        Assembler a;
        a.extbl(r1, i, r0);
        Machine mi = m;
        EXPECT_EQ(runProgram(a, mi), static_cast<uint64_t>(i + 1));
    }
}

TEST(Machine, ScaledAdds)
{
    Machine m;
    m.setReg(r1, 5);
    m.setReg(r2, 100);
    Assembler a;
    a.s4add(r1, r2, r0);
    EXPECT_EQ(runProgram(a, m), 120u);
    Assembler b;
    b.s8add(r1, r2, r0);
    EXPECT_EQ(runProgram(b, m), 140u);
}

TEST(Machine, LoadsAndStores)
{
    Machine m;
    m.setReg(r1, 0x1000);
    m.setReg(r2, 0x1122334455667788ull);
    Assembler a;
    a.stq(r2, r1, 0);
    a.ldl(r3, r1, 0);
    a.ldwu(r4, r1, 2);
    a.ldbu(r5, r1, 7);
    a.mov(r3, r0);
    a.halt();
    Program p = a.finalize();
    m.run(p);
    // Memory is little-endian.
    EXPECT_EQ(m.reg(r3), 0x55667788u);
    EXPECT_EQ(m.reg(r4), 0x5566u);
    EXPECT_EQ(m.reg(r5), 0x11u);
}

TEST(Machine, ThrowsOnOutOfBoundsAccess)
{
    Machine m(4096);
    m.setReg(r1, 4096);
    Assembler a;
    a.ldq(r0, r1, 0);
    a.halt();
    Program p = a.finalize();
    EXPECT_THROW(m.run(p), std::runtime_error);
}

TEST(Machine, BranchLoop)
{
    // Sum 1..10 with a countdown loop.
    Machine m;
    Assembler a;
    a.li(10, r1);
    a.li(0, r2);
    a.label("loop");
    a.addq(r2, r1, r2);
    a.subq(r1, 1, r1);
    a.bne(r1, "loop");
    a.mov(r2, r0);
    EXPECT_EQ(runProgram(a, m), 55u);
}

TEST(Machine, ConditionalMoves)
{
    Machine m;
    m.setReg(r1, 0);
    m.setReg(r2, 7);
    m.setReg(r3, 9);
    Assembler a;
    a.mov(r3, r0);
    a.cmoveq(r1, r2, r0); // r1 == 0 -> r0 = 7
    a.halt();
    m.run(a.finalize());
    EXPECT_EQ(m.reg(r0), 7u);

    Machine m2;
    m2.setReg(r1, 1);
    m2.setReg(r2, 7);
    m2.setReg(r3, 9);
    Assembler b;
    b.mov(r3, r0);
    b.cmoveq(r1, r2, r0); // r1 != 0 -> unchanged
    b.halt();
    m2.run(b.finalize());
    EXPECT_EQ(m2.reg(r0), 9u);
}

TEST(Machine, RotatesMatchReference)
{
    Xorshift64 rng(123);
    for (int i = 0; i < 50; i++) {
        uint32_t v = rng.next32();
        unsigned n = rng.next() % 32;
        Machine m;
        m.setReg(r1, v);
        m.setReg(r2, n);
        Assembler a;
        a.rol32(r1, r2, r0);
        a.halt();
        m.run(a.finalize());
        EXPECT_EQ(m.reg(r0), rotl32(v, n));

        Machine m2;
        m2.setReg(r1, v);
        Assembler b;
        b.ror32(r1, static_cast<int64_t>(n), r0);
        b.halt();
        m2.run(b.finalize());
        EXPECT_EQ(m2.reg(r0), rotl32(v, 32 - n) & 0xFFFFFFFFu);
    }
}

TEST(Machine, RolxXorAccumulates)
{
    Machine m;
    m.setReg(r1, 0x00000001);
    m.setReg(r0, 0xF0F0F0F0);
    Assembler a;
    a.rolx32(r1, 4, r0);
    a.halt();
    m.run(a.finalize());
    EXPECT_EQ(m.reg(r0), (0x10u ^ 0xF0F0F0F0u));
}

TEST(Machine, MulmodMatchesIdeaSemantics)
{
    Xorshift64 rng(321);
    for (int i = 0; i < 200; i++) {
        uint16_t x = static_cast<uint16_t>(rng.next());
        uint16_t y = static_cast<uint16_t>(rng.next());
        Machine m;
        m.setReg(r1, x);
        m.setReg(r2, y);
        Assembler a;
        a.mulmod(r1, r2, r0);
        a.halt();
        m.run(a.finalize());
        EXPECT_EQ(m.reg(r0), cryptarch::crypto::ideaMulMod(x, y));
    }
}

TEST(Machine, SboxIndexesTable)
{
    Machine m;
    // Table at a 1 KB boundary; entry i = i * 0x01010101.
    const uint64_t table = 0x2000;
    for (uint32_t i = 0; i < 256; i++)
        m.write32(table + 4 * i, i * 0x01010101u);
    m.setReg(r1, table);
    m.setReg(r2, 0xDDCCBBAAull); // byte 0 = AA, byte 1 = BB, ...
    for (unsigned bs = 0; bs < 4; bs++) {
        Assembler a;
        a.sbox(0, bs, r1, r2, r0);
        a.halt();
        Machine mi = m;
        mi.run(a.finalize());
        uint32_t idx = (0xDDCCBBAAull >> (8 * bs)) & 0xFF;
        EXPECT_EQ(mi.reg(r0), idx * 0x01010101u) << "byte " << bs;
    }
}

TEST(Machine, SboxIgnoresLowTableBits)
{
    Machine m;
    const uint64_t table = 0x2000;
    m.write32(table + 4 * 7, 0xCAFEBABEu);
    m.setReg(r1, table + 0x3F0); // low bits must be masked off
    m.setReg(r2, 7);
    Assembler a;
    a.sbox(0, 0, r1, r2, r0);
    a.halt();
    m.run(a.finalize());
    EXPECT_EQ(m.reg(r0), 0xCAFEBABEu);
}

TEST(Machine, SboxSyncVisibilitySemantics)
{
    // Paper Figure 8: stores are not visible to later SBOX instructions
    // until an SBOXSYNC executes (unless the aliased flag is set).
    Machine m;
    const uint64_t table = 0x2000;
    m.write32(table, 111);
    m.setReg(r1, table);
    m.setReg(r2, 0);     // index 0
    m.setReg(r3, 222);

    Assembler a;
    a.sbox(0, 0, r1, r2, r4);        // snapshot taken: reads 111
    a.stl(r3, r1, 0);                // store 222 into the table
    a.sbox(0, 0, r1, r2, r5);        // still 111 (no sync)
    a.sboxsync();
    a.sbox(0, 0, r1, r2, r0);        // now 222
    a.halt();
    m.run(a.finalize());
    EXPECT_EQ(m.reg(r4), 111u);
    EXPECT_EQ(m.reg(r5), 111u);
    EXPECT_EQ(m.reg(r0), 222u);
}

TEST(Machine, AliasedSboxSeesStoresImmediately)
{
    Machine m;
    const uint64_t table = 0x2000;
    m.write32(table, 111);
    m.setReg(r1, table);
    m.setReg(r2, 0);
    m.setReg(r3, 222);

    Assembler a;
    a.sbox(0, 0, r1, r2, r4, /*aliased=*/true);
    a.stl(r3, r1, 0);
    a.sbox(0, 0, r1, r2, r0, /*aliased=*/true);
    a.halt();
    m.run(a.finalize());
    EXPECT_EQ(m.reg(r4), 111u);
    EXPECT_EQ(m.reg(r0), 222u);
}

TEST(Machine, XboxPermutesSelectedBits)
{
    Machine m;
    m.setReg(r1, 0x8000000000000001ull); // bits 63 and 0 set
    // Map: output bit j takes input bit map[j]. Select bits 63, 0,
    // 63, 0, ... alternating.
    uint64_t map = 0;
    for (unsigned j = 0; j < 8; j++) {
        unsigned src = (j % 2 == 0) ? 63 : 0;
        map |= static_cast<uint64_t>(src) << (6 * j);
    }
    m.setReg(r2, map);
    Assembler a;
    a.xbox(2, r1, r2, r0); // write result byte 2
    a.halt();
    m.run(a.finalize());
    // All eight selected bits are 1 -> byte 2 = 0xFF, everything else 0.
    EXPECT_EQ(m.reg(r0), 0xFFull << 16);
}

TEST(Machine, XboxMatchesNaivePermutation)
{
    Xorshift64 rng(999);
    for (int trial = 0; trial < 20; trial++) {
        uint64_t value = rng.next();
        // Random full 64-bit permutation map: 8 XBOXes OR'ed together.
        std::array<unsigned, 64> perm;
        for (unsigned i = 0; i < 64; i++)
            perm[i] = i;
        for (unsigned i = 63; i > 0; i--)
            std::swap(perm[i], perm[rng.next() % (i + 1)]);

        uint64_t expect = 0;
        for (unsigned i = 0; i < 64; i++)
            expect |= ((value >> perm[i]) & 1) << i;

        Machine m;
        m.setReg(r1, value);
        Assembler a;
        Reg acc{10};
        a.li(0, acc);
        for (unsigned byte = 0; byte < 8; byte++) {
            uint64_t map = 0;
            for (unsigned j = 0; j < 8; j++) {
                map |= static_cast<uint64_t>(perm[8 * byte + j])
                    << (6 * j);
            }
            Reg mr{static_cast<uint8_t>(20 + byte)};
            m.setReg(mr, map);
            Reg t{static_cast<uint8_t>(30 + byte)};
            a.xbox(byte, r1, mr, t);
            a.bis(acc, t, acc);
        }
        a.mov(acc, r0);
        a.halt();
        m.run(a.finalize());
        EXPECT_EQ(m.reg(r0), expect);
    }
}

TEST(Machine, InstructionLimitGuards)
{
    Machine m;
    Assembler a;
    a.label("spin");
    a.br("spin");
    Program p = a.finalize();
    EXPECT_THROW(m.run(p, nullptr, 1000), std::runtime_error);
}

/**
 * An ALU result aimed at R63 is discarded: the emitted instruction
 * names no destination and carries no result, so no timing model sees
 * a dependence through the zero register.
 */
TEST(Machine, DiscardedDestinationEmitsNoDestOrResult)
{
    struct Capture : TraceSink
    {
        std::vector<DynInst> insts;
        void emit(const DynInst &d) override { insts.push_back(d); }
    };

    Assembler a;
    a.li(7, r1);
    a.li(9, r2);
    a.addq(r1, r2, reg_zero); // result discarded
    a.xor_(r1, r2, reg_zero); // result discarded
    a.mulq(r1, r2, r3);       // result kept
    a.halt();
    Program p = a.finalize();

    Machine m;
    Capture sink;
    m.run(p, &sink);
    ASSERT_EQ(sink.insts.size(), 6u);
    for (size_t i : {2u, 3u}) {
        EXPECT_EQ(sink.insts[i].dest, reg_zero.n) << "inst " << i;
        EXPECT_EQ(sink.insts[i].result, 0u) << "inst " << i;
    }
    EXPECT_EQ(sink.insts[4].dest, r3.n);
    EXPECT_EQ(sink.insts[4].result, 63u);
    EXPECT_EQ(m.reg(reg_zero), 0u);
}

} // namespace
