/**
 * @file
 * RC6 CBC encryption kernel in CryptISA.
 *
 * RC6 is a computational cipher: each round is two quadratic functions
 * x*(2x+1) (32-bit multiplies with the 4-cycle early-out), two
 * constant rotates and two data-dependent rotates. It is the heaviest
 * beneficiary of plain hardware rotates (24% slowdown without them in
 * Figure 10's Orig/4W bar) and gains only modestly from the rest of
 * the extension set.
 */

#include "crypto/rc6.hh"
#include "kernels/builders.hh"
#include "kernels/emit.hh"
#include "util/bitops.hh"

namespace cryptarch::kernels
{

using isa::Reg;

KernelBuild
buildRc6Kernel(KernelVariant v, std::span<const uint8_t> key,
               std::span<const uint8_t> iv, size_t bytes,
               KernelDirection dir)
{
    const bool dec = dir == KernelDirection::Decrypt;
    crypto::Rc6 ref;
    ref.setKey(key);

    KernelBuild b;
    b.memInit.emplace_back(subkey_region,
                           words32(std::span<const uint32_t>(
                               ref.roundKeys().data(),
                               ref.roundKeys().size())));
    const uint32_t iv_words[4] = {
        util::load32le(iv.data()), util::load32le(iv.data() + 4),
        util::load32le(iv.data() + 8), util::load32le(iv.data() + 12)};
    b.memInit.emplace_back(iv_region, words32(iv_words));

    KernelCtx ctx(v);
    auto &as = ctx.as;
    auto &rp = ctx.regs;

    Reg in_ptr = rp.alloc(), out_ptr = rp.alloc(), count = rp.alloc();
    Reg kb = rp.alloc();
    Reg ch[4];
    for (auto &r : ch)
        r = rp.alloc();
    Reg w[4]; // a, b, c, d under compile-time renaming
    for (auto &r : w)
        r = rp.alloc();
    Reg t = rp.alloc(), u = rp.alloc(), k = rp.alloc();
    Reg s1 = rp.alloc(), s2 = rp.alloc();

    ctx.cat(OpCategory::Arithmetic);
    as.li(b.inAddr, in_ptr);
    as.li(b.outAddr, out_ptr);
    as.li(static_cast<int64_t>(bytes / 16), count);
    as.li(subkey_region, kb);
    Reg ivb = t;
    as.li(iv_region, ivb);
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 4; i++)
        as.ldl(ch[i], ivb, 4 * i);

    // quad(x) = rotl32(x * (2x + 1), 5) into @p d.
    auto quad = [&](Reg x, Reg d) {
        ctx.cat(OpCategory::Arithmetic);
        as.addl(x, x, d);
        as.addl(d, 1, d);
        ctx.mul32(x, d, d);
        ctx.rotl32i(d, 5, d, s1);
    };

    as.label("block");
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 4; i++)
        as.ldl(w[i], in_ptr, 4 * i);
    if (!dec) {
        ctx.cat(OpCategory::Logic);
        for (int i = 0; i < 4; i++)
            as.xor_(w[i], ch[i], w[i]);
    }

    int a = 0, bb = 1, c = 2, d = 3;
    if (!dec) {
        // Pre-whitening: B += S[0], D += S[1].
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 0);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(w[1], k, w[1]);
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(w[3], k, w[3]);

        // 20 rounds, fully unrolled; the (a,b,c,d) <- (b,c,d,a)
        // rotation is compile-time register renaming.
        for (int round = 1; round <= crypto::Rc6::rounds; round++) {
            quad(w[bb], t);
            quad(w[d], u);
            ctx.cat(OpCategory::Logic);
            as.xor_(w[a], t, w[a]);
            ctx.rotl32v(w[a], u, w[a], s1, s2);
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (2 * round));
            ctx.cat(OpCategory::Arithmetic);
            as.addl(w[a], k, w[a]);
            ctx.cat(OpCategory::Logic);
            as.xor_(w[c], u, w[c]);
            ctx.rotl32v(w[c], t, w[c], s1, s2);
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (2 * round + 1));
            ctx.cat(OpCategory::Arithmetic);
            as.addl(w[c], k, w[c]);
            int tmp = a;
            a = bb;
            bb = c;
            c = d;
            d = tmp;
        }

        // Post-whitening: A += S[2r+2], C += S[2r+3].
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4 * (2 * crypto::Rc6::rounds + 2));
        ctx.cat(OpCategory::Arithmetic);
        as.addl(w[a], k, w[a]);
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4 * (2 * crypto::Rc6::rounds + 3));
        ctx.cat(OpCategory::Arithmetic);
        as.addl(w[c], k, w[c]);
    } else {
        // Inverse post-whitening: C -= S[2r+3], A -= S[2r+2].
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4 * (2 * crypto::Rc6::rounds + 3));
        ctx.cat(OpCategory::Arithmetic);
        as.subl(w[2], k, w[2]);
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4 * (2 * crypto::Rc6::rounds + 2));
        ctx.cat(OpCategory::Arithmetic);
        as.subl(w[0], k, w[0]);

        // Rounds in reverse with the name rotation inverted.
        for (int round = crypto::Rc6::rounds; round >= 1; round--) {
            int tmp = d;
            d = c;
            c = bb;
            bb = a;
            a = tmp;
            quad(w[bb], t);
            quad(w[d], u);
            // c = rotr(c - S[2i+1], t) ^ u
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (2 * round + 1));
            ctx.cat(OpCategory::Arithmetic);
            as.subl(w[c], k, w[c]);
            ctx.rotr32v(w[c], t, w[c], s1, s2);
            ctx.cat(OpCategory::Logic);
            as.xor_(w[c], u, w[c]);
            // a = rotr(a - S[2i], u) ^ t
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (2 * round));
            ctx.cat(OpCategory::Arithmetic);
            as.subl(w[a], k, w[a]);
            ctx.rotr32v(w[a], u, w[a], s1, s2);
            ctx.cat(OpCategory::Logic);
            as.xor_(w[a], t, w[a]);
        }

        // Inverse pre-whitening: D -= S[1], B -= S[0].
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4);
        ctx.cat(OpCategory::Arithmetic);
        as.subl(w[d], k, w[d]);
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 0);
        ctx.cat(OpCategory::Arithmetic);
        as.subl(w[bb], k, w[bb]);
    }

    int names[4] = {a, bb, c, d};
    if (!dec) {
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.stl(w[names[i]], out_ptr, 4 * i);
        ctx.cat(OpCategory::Arithmetic);
        for (int i = 0; i < 4; i++)
            as.bis(w[names[i]], isa::reg_zero, ch[i]);
    } else {
        ctx.cat(OpCategory::Logic);
        for (int i = 0; i < 4; i++)
            as.xor_(w[names[i]], ch[i], w[names[i]]);
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.stl(w[names[i]], out_ptr, 4 * i);
        for (int i = 0; i < 4; i++)
            as.ldl(ch[i], in_ptr, 4 * i);
    }

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
