/**
 * @file
 * IDEA CBC encryption kernel in CryptISA.
 *
 * IDEA's diffusion is 34 multiplications modulo 2^16+1 per 64-bit
 * block (four per round plus two in the output transform). The
 * baseline variant expands each into a 32-bit multiply plus Lai's
 * low-high correction with a zero-operand fixup branch (~11
 * instructions, 7+ cycles); the optimized variant is a single 4-cycle
 * MULMOD — the source of IDEA's 159% speedup in Figure 10.
 */

#include "crypto/idea.hh"
#include "kernels/builders.hh"
#include "kernels/emit.hh"

namespace cryptarch::kernels
{

using isa::Reg;

KernelBuild
buildIdeaKernel(KernelVariant v, std::span<const uint8_t> key,
                std::span<const uint8_t> iv, size_t bytes,
                KernelDirection dir)
{
    const bool dec = dir == KernelDirection::Decrypt;
    crypto::Idea ref;
    ref.setKey(key);

    KernelBuild b;
    // 52 subkeys as 16-bit values in 32-bit slots (ldl-addressable).
    // Decryption is the identical kernel driven by the inverted key
    // schedule — IDEA's defining symmetry.
    const auto &keys = dec ? ref.decryptKeys() : ref.encryptKeys();
    b.memInit.emplace_back(subkey_region,
                           words16To32(std::span<const uint16_t>(
                               keys.data(), 52)));
    const uint16_t iv_words[4] = {
        static_cast<uint16_t>((iv[0] << 8) | iv[1]),
        static_cast<uint16_t>((iv[2] << 8) | iv[3]),
        static_cast<uint16_t>((iv[4] << 8) | iv[5]),
        static_cast<uint16_t>((iv[6] << 8) | iv[7]),
    };
    b.memInit.emplace_back(iv_region, words16To32(iv_words));

    KernelCtx ctx(v);
    auto &as = ctx.as;
    auto &rp = ctx.regs;

    Reg in_ptr = rp.alloc(), out_ptr = rp.alloc(), count = rp.alloc();
    Reg kb = rp.alloc();
    Reg c0 = rp.alloc(), c1 = rp.alloc(), c2 = rp.alloc(),
        c3 = rp.alloc();
    Reg x0 = rp.alloc(), x1 = rp.alloc(), x2 = rp.alloc(),
        x3 = rp.alloc();
    Reg t0 = rp.alloc(), t1 = rp.alloc(), t2 = rp.alloc();
    Reg s0 = rp.alloc(), s1 = rp.alloc();
    Reg one = rp.alloc();

    ctx.cat(OpCategory::Arithmetic);
    as.li(b.inAddr, in_ptr);
    as.li(b.outAddr, out_ptr);
    as.li(static_cast<int64_t>(bytes / 8), count);
    as.li(subkey_region, kb);
    as.li(1, one);
    Reg ivb = t0;
    as.li(iv_region, ivb);
    ctx.cat(OpCategory::Memory);
    as.ldwu(c0, ivb, 0);
    as.ldwu(c1, ivb, 4);
    as.ldwu(c2, ivb, 8);
    as.ldwu(c3, ivb, 12);

    // 16-bit modular add: d = (a + k) & 0xffff.
    auto add16 = [&](Reg a, Reg k, Reg d) {
        ctx.cat(OpCategory::Arithmetic);
        as.addl(a, k, d);
        as.and_(d, 0xFFFF, d);
    };

    as.label("block");
    ctx.cat(OpCategory::Memory);
    as.ldwu(x0, in_ptr, 0);
    as.ldwu(x1, in_ptr, 2);
    as.ldwu(x2, in_ptr, 4);
    as.ldwu(x3, in_ptr, 6);
    if (!dec) {
        ctx.cat(OpCategory::Logic);
        as.xor_(x0, c0, x0);
        as.xor_(x1, c1, x1);
        as.xor_(x2, c2, x2);
        as.xor_(x3, c3, x3);
    }

    Reg k0 = rp.alloc(), k1 = rp.alloc(), k2 = rp.alloc(),
        k3 = rp.alloc(), k4 = rp.alloc(), k5 = rp.alloc();

    for (int round = 0; round < 8; round++) {
        const int base = round * 24; // 6 keys x 4 bytes
        ctx.cat(OpCategory::Memory);
        as.ldl(k0, kb, base + 0);
        as.ldl(k1, kb, base + 4);
        as.ldl(k2, kb, base + 8);
        as.ldl(k3, kb, base + 12);
        as.ldl(k4, kb, base + 16);
        as.ldl(k5, kb, base + 20);

        ctx.mulmod16(x0, k0, x0, s0, s1, one);
        add16(x1, k1, x1);
        add16(x2, k2, x2);
        ctx.mulmod16(x3, k3, x3, s0, s1, one);

        ctx.cat(OpCategory::Logic);
        as.xor_(x0, x2, t0);
        ctx.mulmod16(t0, k4, t0, s0, s1, one);
        ctx.cat(OpCategory::Logic);
        as.xor_(x1, x3, t1);
        add16(t1, t0, t1);
        ctx.mulmod16(t1, k5, t1, s0, s1, one);
        add16(t0, t1, t2);

        ctx.cat(OpCategory::Logic);
        as.xor_(x0, t1, x0);
        as.xor_(x3, t2, x3);
        // Swap middle words while mixing: x1' = x2 ^ t1, x2' = x1 ^ t2.
        as.xor_(x1, t2, s0);
        as.xor_(x2, t1, x1);
        as.bis(s0, isa::reg_zero, x2);
    }

    // Output transform (undoes the final swap).
    ctx.cat(OpCategory::Memory);
    as.ldl(k0, kb, 48 * 4);
    as.ldl(k1, kb, 49 * 4);
    as.ldl(k2, kb, 50 * 4);
    as.ldl(k3, kb, 51 * 4);
    if (!dec) {
        ctx.mulmod16(x0, k0, c0, s0, s1, one);
        add16(x2, k1, c1);
        add16(x1, k2, c2);
        ctx.mulmod16(x3, k3, c3, s0, s1, one);

        ctx.cat(OpCategory::Memory);
        as.stw(c0, out_ptr, 0);
        as.stw(c1, out_ptr, 2);
        as.stw(c2, out_ptr, 4);
        as.stw(c3, out_ptr, 6);
    } else {
        Reg y0 = k0, y1 = k1, y2 = k2, y3 = k3; // reuse key temps
        ctx.mulmod16(x0, k0, y0, s0, s1, one);
        add16(x2, k1, y1);
        add16(x1, k2, y2);
        ctx.mulmod16(x3, k3, y3, s0, s1, one);
        ctx.cat(OpCategory::Logic);
        as.xor_(y0, c0, y0);
        as.xor_(y1, c1, y1);
        as.xor_(y2, c2, y2);
        as.xor_(y3, c3, y3);
        ctx.cat(OpCategory::Memory);
        as.stw(y0, out_ptr, 0);
        as.stw(y1, out_ptr, 2);
        as.stw(y2, out_ptr, 4);
        as.stw(y3, out_ptr, 6);
        as.ldwu(c0, in_ptr, 0);
        as.ldwu(c1, in_ptr, 2);
        as.ldwu(c2, in_ptr, 4);
        as.ldwu(c3, in_ptr, 6);
    }

    ctx.cat(OpCategory::Arithmetic);
    as.addq(in_ptr, 8, in_ptr);
    as.addq(out_ptr, 8, out_ptr);
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
