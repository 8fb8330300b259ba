/**
 * @file
 * Twofish CBC encryption kernel in CryptISA (full keying).
 *
 * The g function is four lookups into the key-dependent 256x32 tables
 * (MDS folded in) — one per SBox cache on the 4W+ machine. The second
 * g operates on ROL(R1, 8), which is free in both variants: the byte
 * rotation is absorbed into the lookup byte selectors. The
 * rotl-then-xor of the fourth word is a ROLX in the optimized variant
 * (one of the two combining opportunities the paper identified).
 */

#include "crypto/twofish.hh"
#include "kernels/builders.hh"
#include "kernels/emit.hh"
#include "util/bitops.hh"

namespace cryptarch::kernels
{

using isa::Reg;

KernelBuild
buildTwofishKernel(KernelVariant v, std::span<const uint8_t> key,
                   std::span<const uint8_t> iv, size_t bytes,
                   KernelDirection dir)
{
    const bool dec = dir == KernelDirection::Decrypt;
    crypto::Twofish ref;
    ref.setKey(key);

    KernelBuild b;
    for (int i = 0; i < 4; i++) {
        b.memInit.emplace_back(tableAddr(i),
                               words32(std::span<const uint32_t>(
                                   ref.gTables()[i].data(), 256)));
    }
    b.memInit.emplace_back(subkey_region,
                           words32(std::span<const uint32_t>(
                               ref.subkeys().data(), 40)));
    const uint32_t iv_words[4] = {
        util::load32le(iv.data()), util::load32le(iv.data() + 4),
        util::load32le(iv.data() + 8), util::load32le(iv.data() + 12)};
    b.memInit.emplace_back(iv_region, words32(iv_words));

    KernelCtx ctx(v);
    auto &as = ctx.as;
    auto &rp = ctx.regs;

    Reg in_ptr = rp.alloc(), out_ptr = rp.alloc(), count = rp.alloc();
    Reg kb = rp.alloc();
    Reg tbase[4];
    for (auto &r : tbase)
        r = rp.alloc();
    Reg wk[8]; // whitening keys K0..K7 in registers
    for (auto &r : wk)
        r = rp.alloc();
    Reg ch[4], r_[4];
    for (auto &r : ch)
        r = rp.alloc();
    for (auto &r : r_)
        r = rp.alloc();
    Reg t0 = rp.alloc(), t1 = rp.alloc(), tt = rp.alloc(),
        k = rp.alloc();
    Reg s1 = rp.alloc(), s2 = rp.alloc();

    ctx.cat(OpCategory::Arithmetic);
    as.li(b.inAddr, in_ptr);
    as.li(b.outAddr, out_ptr);
    as.li(static_cast<int64_t>(bytes / 16), count);
    as.li(subkey_region, kb);
    for (int i = 0; i < 4; i++)
        as.li(static_cast<int64_t>(tableAddr(i)), tbase[i]);
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 8; i++)
        as.ldl(wk[i], kb, 4 * i);
    Reg ivb = t0;
    ctx.cat(OpCategory::Arithmetic);
    as.li(iv_region, ivb);
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 4; i++)
        as.ldl(ch[i], ivb, 4 * i);

    // g(x) into acc; byte lane j of x indexes table (j + sel) & 3 when
    // the input is pre-rotated by 8*sel bits (sel=1 implements
    // g(ROL(x,8)) for free).
    auto gfunc = [&](Reg x, Reg acc, int sel) {
        // table lane j reads byte (j - sel) mod 4 of x.
        ctx.sboxLoad(0, tbase[0], x, (0 - sel) & 3, acc, s1);
        ctx.sboxLoadXor(1, tbase[1], x, (1 - sel) & 3, acc, tt, s2);
        ctx.sboxLoadXor(2, tbase[2], x, (2 - sel) & 3, acc, tt, s1);
        ctx.sboxLoadXor(3, tbase[3], x, (3 - sel) & 3, acc, tt, s2);
    };

    as.label("block");
    int i0 = 0, i1 = 1, i2 = 2, i3 = 3;
    if (!dec) {
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.ldl(r_[i], in_ptr, 4 * i);
        ctx.cat(OpCategory::Logic);
        for (int i = 0; i < 4; i++)
            as.xor_(r_[i], ch[i], r_[i]);
        for (int i = 0; i < 4; i++)
            as.xor_(r_[i], wk[i], r_[i]);

        // 16 rounds with the half swap as compile-time renaming:
        // indices (i0,i1) are the Feistel inputs, (i2,i3) the targets.
        for (int round = 0; round < crypto::Twofish::rounds; round++) {
            gfunc(r_[i0], t0, 0);
            gfunc(r_[i1], t1, 1); // g(ROL(r1,8)) via byte selectors
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (2 * round + 8));
            ctx.cat(OpCategory::Arithmetic);
            as.addl(t0, t1, tt); // tt = t0 + t1
            as.addl(tt, k, tt);  // f0
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (2 * round + 9));
            ctx.cat(OpCategory::Arithmetic);
            as.addl(t0, t1, t0);
            as.addl(t0, t1, t0); // t0 = t0 + 2*t1
            as.addl(t0, k, t0);  // f1
            // r2' = rotr(r2 ^ f0, 1)
            ctx.cat(OpCategory::Logic);
            as.xor_(r_[i2], tt, r_[i2]);
            ctx.rotr32i(r_[i2], 1, r_[i2], s1);
            // r3' = rotl(r3, 1) ^ f1  — the ROLX pattern.
            if (ctx.optimized()) {
                ctx.cat(OpCategory::Rotate);
                as.rolx32(r_[i3], 1, t0); // t0 = rotl(r3,1) ^ f1
                std::swap(r_[i3], t0);    // compile-time rename
            } else {
                ctx.rotl32i(r_[i3], 1, r_[i3], s1);
                ctx.cat(OpCategory::Logic);
                as.xor_(r_[i3], t0, r_[i3]);
            }
            // Swap halves for the next round.
            std::swap(i0, i2);
            std::swap(i1, i3);
        }

        // Output whitening undoes the last swap:
        // C_i = R[(i+2)&3] ^ K4+i in logical order (i0,i1,i2,i3).
        int logical[4] = {i0, i1, i2, i3};
        for (int i = 0; i < 4; i++) {
            ctx.cat(OpCategory::Logic);
            as.xor_(r_[logical[(i + 2) & 3]], wk[4 + i], ch[i]);
        }
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.stl(ch[i], out_ptr, 4 * i);
    } else {
        // Inverse cipher: input whitening with K4..K7 into swapped
        // slots, rounds backwards with the inverse half-function.
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.ldl(r_[(i + 2) & 3], in_ptr, 4 * i);
        ctx.cat(OpCategory::Logic);
        for (int i = 0; i < 4; i++)
            as.xor_(r_[(i + 2) & 3], wk[4 + i], r_[(i + 2) & 3]);

        for (int round = crypto::Twofish::rounds - 1; round >= 0;
             round--) {
            // Undo the swap: the new Feistel inputs are old (i2,i3).
            std::swap(i0, i2);
            std::swap(i1, i3);
            gfunc(r_[i0], t0, 0);
            gfunc(r_[i1], t1, 1);
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (2 * round + 8));
            ctx.cat(OpCategory::Arithmetic);
            as.addl(t0, t1, tt); // f0
            as.addl(tt, k, tt);
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (2 * round + 9));
            ctx.cat(OpCategory::Arithmetic);
            as.addl(t0, t1, t0);
            as.addl(t0, t1, t0);
            as.addl(t0, k, t0);  // f1
            // r2 = rotl(n2, 1) ^ f0 — the ROLX pattern.
            if (ctx.optimized()) {
                ctx.cat(OpCategory::Rotate);
                as.rolx32(r_[i2], 1, tt); // tt = rotl(n2,1) ^ f0
                std::swap(r_[i2], tt);
            } else {
                ctx.rotl32i(r_[i2], 1, r_[i2], s1);
                ctx.cat(OpCategory::Logic);
                as.xor_(r_[i2], tt, r_[i2]);
            }
            // r3 = rotr(n3 ^ f1, 1)
            ctx.cat(OpCategory::Logic);
            as.xor_(r_[i3], t0, r_[i3]);
            ctx.rotr32i(r_[i3], 1, r_[i3], s1);
        }

        // Undo the input whitening, CBC-XOR, store, reload chain.
        int logical[4] = {i0, i1, i2, i3};
        for (int i = 0; i < 4; i++) {
            ctx.cat(OpCategory::Logic);
            as.xor_(r_[logical[i]], wk[i], r_[logical[i]]);
            as.xor_(r_[logical[i]], ch[i], r_[logical[i]]);
        }
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.stl(r_[logical[i]], out_ptr, 4 * i);
        for (int i = 0; i < 4; i++)
            as.ldl(ch[i], in_ptr, 4 * i);
    }

    ctx.cat(OpCategory::Arithmetic);
    as.addq(in_ptr, 16, in_ptr);
    as.addq(out_ptr, 16, out_ptr);
    as.subq(count, 1, count);
    ctx.cat(OpCategory::Control);
    as.bne(count, "block");
    as.halt();

    b.program = as.finalize();
    b.loopHead = as.labelPc("block");
    b.categories = takeCategories(ctx);
    return b;
}

} // namespace cryptarch::kernels
