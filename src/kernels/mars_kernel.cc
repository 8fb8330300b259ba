/**
 * @file
 * MARS CBC encryption kernel in CryptISA.
 *
 * MARS mixes every mechanism the paper studies: unkeyed S-box mixing
 * phases (byte-indexed lookups into the 512-word table), a keyed core
 * whose E-function does a 32-bit multiply, an S-box lookup and two
 * data-dependent rotates per round, and pervasive constant rotates
 * (the reason MARS suffers the worst rotate-less slowdown, 40%).
 *
 * The 512-entry S-box exceeds the SBOX instruction's 256-entry limit;
 * following the paper's guidance ("larger SBoxes could be implemented
 * by striping the table across multiple architectural tables and
 * selecting the correct value based on the upper bits"), the E-function
 * reads both halves and selects with a conditional move.
 */

#include "crypto/mars.hh"
#include "kernels/builders.hh"
#include "kernels/emit.hh"
#include "util/bitops.hh"

namespace cryptarch::kernels
{

using isa::Reg;

KernelBuild
buildMarsKernel(KernelVariant v, std::span<const uint8_t> key,
                std::span<const uint8_t> iv, size_t bytes,
                KernelDirection dir)
{
    const bool dec = dir == KernelDirection::Decrypt;
    crypto::Mars ref;
    ref.setKey(key);

    KernelBuild b;
    const auto &sbox = crypto::Mars::sbox();
    // S0 on table frame 0, S1 on frame 1 (contiguous 2 KB for the
    // baseline's 9-bit indexed loads).
    b.memInit.emplace_back(tableAddr(0),
                           words32(std::span<const uint32_t>(
                               sbox.data(), 256)));
    b.memInit.emplace_back(tableAddr(1),
                           words32(std::span<const uint32_t>(
                               sbox.data() + 256, 256)));
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
    Reg sb0 = rp.alloc(), sb1 = rp.alloc();
    Reg ch[4], d[4];
    for (auto &r : ch)
        r = rp.alloc();
    for (auto &r : d)
        r = rp.alloc();
    Reg t = rp.alloc(), k = rp.alloc(), k2 = rp.alloc();
    Reg el = rp.alloc(), em = rp.alloc(), er = rp.alloc();
    Reg s1 = rp.alloc(), s2 = rp.alloc();

    ctx.cat(OpCategory::Arithmetic);
    as.li(b.inAddr, in_ptr);
    as.li(b.outAddr, out_ptr);
    as.li(static_cast<int64_t>(bytes / 16), count);
    as.li(subkey_region, kb);
    as.li(static_cast<int64_t>(tableAddr(0)), sb0);
    as.li(static_cast<int64_t>(tableAddr(1)), sb1);
    Reg ivb = t;
    as.li(iv_region, ivb);
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 4; i++)
        as.ldl(ch[i], ivb, 4 * i);

    // S0/S1 lookup of byte @p bs of @p x.
    auto mix = [&](Reg base, unsigned table_id, Reg x, unsigned bs,
                   Reg dst) {
        ctx.sboxLoad(table_id, base, x, bs, dst, s1);
    };

    // l = S[m & 0x1ff]: both halves + select on bit 8 (optimized), or
    // one 9-bit indexed load from the contiguous table (baseline).
    auto sbox512 = [&](Reg m, Reg dst) {
        ctx.cat(OpCategory::Substitution);
        if (ctx.optimized()) {
            as.sbox(0, 0, sb0, m, dst);
            as.sbox(1, 0, sb1, m, s2);
            as.and_(m, 0x100, s1);
            as.cmovne(s1, s2, dst);
        } else {
            as.and_(m, 0x1FF, s1);
            as.s4add(s1, sb0, s1);
            as.ldl(dst, s1, 0);
        }
    };

    as.label("block");
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 4; i++)
        as.ldl(d[i], in_ptr, 4 * i);
    if (!dec) {
        ctx.cat(OpCategory::Logic);
        for (int i = 0; i < 4; i++)
            as.xor_(d[i], ch[i], d[i]);
        // Input whitening: D[i] += K[i].
        for (int i = 0; i < 4; i++) {
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * i);
            ctx.cat(OpCategory::Arithmetic);
            as.addl(d[i], k, d[i]);
        }
    } else {
        // Inverse output whitening: D[i] += K[36+i].
        for (int i = 0; i < 4; i++) {
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (36 + i));
            ctx.cat(OpCategory::Arithmetic);
            as.addl(d[i], k, d[i]);
        }
    }

    int n0 = 0, n1 = 1, n2 = 2, n3 = 3;
    auto rotateNames = [&] {
        int first = n0;
        n0 = n1;
        n1 = n2;
        n2 = n3;
        n3 = first;
    };
    auto rotateNamesBack = [&] {
        int last = n3;
        n3 = n2;
        n2 = n1;
        n1 = n0;
        n0 = last;
    };
    (void)rotateNamesBack;

    if (!dec) {
    // ---- forward mixing (8 unkeyed rounds, unrolled) ----
    for (int i = 0; i < 8; i++) {
        mix(sb0, 0, d[n0], 0, t);
        ctx.cat(OpCategory::Logic);
        as.xor_(d[n1], t, d[n1]);
        mix(sb1, 1, d[n0], 1, t);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(d[n1], t, d[n1]);
        mix(sb0, 0, d[n0], 2, t);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(d[n2], t, d[n2]);
        mix(sb1, 1, d[n0], 3, t);
        ctx.cat(OpCategory::Logic);
        as.xor_(d[n3], t, d[n3]);
        ctx.rotr32i(d[n0], 24, d[n0], s1);
        if (i == 0 || i == 4) {
            ctx.cat(OpCategory::Arithmetic);
            as.addl(d[n0], d[n3], d[n0]);
        }
        if (i == 1 || i == 5) {
            ctx.cat(OpCategory::Arithmetic);
            as.addl(d[n0], d[n1], d[n0]);
        }
        rotateNames();
    }

    // ---- cryptographic core (16 keyed rounds, unrolled) ----
    for (int i = 0; i < 16; i++) {
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4 * (2 * i + 4));
        as.ldl(k2, kb, 4 * (2 * i + 5));
        // E-function on d[n0].
        ctx.cat(OpCategory::Arithmetic);
        as.addl(d[n0], k, em);
        ctx.rotl32i(d[n0], 13, er, s1); // er = rotl13(d0), reused below
        ctx.cat(OpCategory::Arithmetic);
        as.bis(er, isa::reg_zero, d[n0]); // d0 <- rotl13(d0)
        ctx.mul32(er, k2, er);
        sbox512(em, el);
        ctx.rotl32i(er, 5, er, s1);
        ctx.rotl32v(em, er, em, s1, s2);
        ctx.cat(OpCategory::Logic);
        as.xor_(el, er, el);
        ctx.rotl32i(er, 5, er, s1);
        ctx.cat(OpCategory::Logic);
        as.xor_(el, er, el);
        ctx.rotl32v(el, er, el, s1, s2);
        // Apply outputs.
        ctx.cat(OpCategory::Arithmetic);
        as.addl(d[n2], em, d[n2]);
        if (i < 8) {
            as.addl(d[n1], el, d[n1]);
            ctx.cat(OpCategory::Logic);
            as.xor_(d[n3], er, d[n3]);
        } else {
            as.addl(d[n3], el, d[n3]);
            ctx.cat(OpCategory::Logic);
            as.xor_(d[n1], er, d[n1]);
        }
        rotateNames();
    }

    // ---- backwards mixing (8 unkeyed rounds, unrolled) ----
    for (int i = 0; i < 8; i++) {
        if (i == 2 || i == 6) {
            ctx.cat(OpCategory::Arithmetic);
            as.subl(d[n0], d[n3], d[n0]);
        }
        if (i == 3 || i == 7) {
            ctx.cat(OpCategory::Arithmetic);
            as.subl(d[n0], d[n1], d[n0]);
        }
        mix(sb1, 1, d[n0], 0, t);
        ctx.cat(OpCategory::Logic);
        as.xor_(d[n1], t, d[n1]);
        mix(sb0, 0, d[n0], 3, t);
        ctx.cat(OpCategory::Arithmetic);
        as.subl(d[n2], t, d[n2]);
        mix(sb1, 1, d[n0], 2, t);
        ctx.cat(OpCategory::Arithmetic);
        as.subl(d[n3], t, d[n3]);
        mix(sb0, 0, d[n0], 1, t);
        ctx.cat(OpCategory::Logic);
        as.xor_(d[n3], t, d[n3]);
        ctx.rotl32i(d[n0], 24, d[n0], s1);
        rotateNames();
    }

    // Output whitening: C[i] = D[i] - K[36+i].
    {
        int names[4] = {n0, n1, n2, n3};
        for (int i = 0; i < 4; i++) {
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (36 + i));
            ctx.cat(OpCategory::Arithmetic);
            as.subl(d[names[i]], k, ch[i]);
        }
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.stl(ch[i], out_ptr, 4 * i);
    }
    } else {
    // ---- inverse backwards mixing (rounds reversed) ----
    for (int i = 7; i >= 0; i--) {
        rotateNamesBack();
        ctx.rotr32i(d[n0], 24, d[n0], s1);
        mix(sb0, 0, d[n0], 1, t);
        ctx.cat(OpCategory::Logic);
        as.xor_(d[n3], t, d[n3]);
        mix(sb1, 1, d[n0], 2, t);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(d[n3], t, d[n3]);
        mix(sb0, 0, d[n0], 3, t);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(d[n2], t, d[n2]);
        mix(sb1, 1, d[n0], 0, t);
        ctx.cat(OpCategory::Logic);
        as.xor_(d[n1], t, d[n1]);
        if (i == 3 || i == 7) {
            ctx.cat(OpCategory::Arithmetic);
            as.addl(d[n0], d[n1], d[n0]);
        }
        if (i == 2 || i == 6) {
            ctx.cat(OpCategory::Arithmetic);
            as.addl(d[n0], d[n3], d[n0]);
        }
    }

    // ---- inverse core (rounds reversed) ----
    for (int i = 15; i >= 0; i--) {
        rotateNamesBack();
        ctx.rotr32i(d[n0], 13, d[n0], s1);
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4 * (2 * i + 4));
        as.ldl(k2, kb, 4 * (2 * i + 5));
        // E-function on the restored d[n0].
        ctx.cat(OpCategory::Arithmetic);
        as.addl(d[n0], k, em);
        ctx.rotl32i(d[n0], 13, er, s1);
        ctx.mul32(er, k2, er);
        sbox512(em, el);
        ctx.rotl32i(er, 5, er, s1);
        ctx.rotl32v(em, er, em, s1, s2);
        ctx.cat(OpCategory::Logic);
        as.xor_(el, er, el);
        ctx.rotl32i(er, 5, er, s1);
        ctx.cat(OpCategory::Logic);
        as.xor_(el, er, el);
        ctx.rotl32v(el, er, el, s1, s2);
        // Remove the outputs.
        ctx.cat(OpCategory::Arithmetic);
        as.subl(d[n2], em, d[n2]);
        if (i < 8) {
            as.subl(d[n1], el, d[n1]);
            ctx.cat(OpCategory::Logic);
            as.xor_(d[n3], er, d[n3]);
        } else {
            as.subl(d[n3], el, d[n3]);
            ctx.cat(OpCategory::Logic);
            as.xor_(d[n1], er, d[n1]);
        }
    }

    // ---- inverse forward mixing (rounds reversed) ----
    for (int i = 7; i >= 0; i--) {
        rotateNamesBack();
        if (i == 1 || i == 5) {
            ctx.cat(OpCategory::Arithmetic);
            as.subl(d[n0], d[n1], d[n0]);
        }
        if (i == 0 || i == 4) {
            ctx.cat(OpCategory::Arithmetic);
            as.subl(d[n0], d[n3], d[n0]);
        }
        ctx.rotl32i(d[n0], 24, d[n0], s1);
        mix(sb1, 1, d[n0], 3, t);
        ctx.cat(OpCategory::Logic);
        as.xor_(d[n3], t, d[n3]);
        mix(sb0, 0, d[n0], 2, t);
        ctx.cat(OpCategory::Arithmetic);
        as.subl(d[n2], t, d[n2]);
        mix(sb1, 1, d[n0], 1, t);
        ctx.cat(OpCategory::Arithmetic);
        as.subl(d[n1], t, d[n1]);
        mix(sb0, 0, d[n0], 0, t);
        ctx.cat(OpCategory::Logic);
        as.xor_(d[n1], t, d[n1]);
    }

    // Inverse input whitening, CBC-XOR, store, reload chain.
    {
        int names[4] = {n0, n1, n2, n3};
        for (int i = 0; i < 4; i++) {
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * i);
            ctx.cat(OpCategory::Arithmetic);
            as.subl(d[names[i]], k, d[names[i]]);
            ctx.cat(OpCategory::Logic);
            as.xor_(d[names[i]], ch[i], d[names[i]]);
        }
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.stl(d[names[i]], out_ptr, 4 * i);
        for (int i = 0; i < 4; i++)
            as.ldl(ch[i], in_ptr, 4 * i);
    }
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
