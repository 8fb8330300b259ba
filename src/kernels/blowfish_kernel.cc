/**
 * @file
 * Blowfish CBC encryption kernel in CryptISA.
 *
 * Structure mirrors the CryptSoft software formulation: the 18-entry
 * P-array lives in registers (loaded once per session), the four
 * 256x32 S-boxes are 1 KB tables accessed once per F evaluation, and
 * the 16 rounds are fully unrolled. Per round the optimized variant
 * needs one XOR + four SBOX + three combines + one XOR; the baseline
 * expands each S-box access to extract/scale/load.
 */

#include "crypto/blowfish.hh"
#include "kernels/builders.hh"
#include "kernels/emit.hh"
#include "util/bitops.hh"

#include <stdexcept>

namespace cryptarch::kernels
{

using isa::Reg;

KernelBuild
buildBlowfishKernel(KernelVariant v, std::span<const uint8_t> key,
                    std::span<const uint8_t> iv, size_t bytes,
                    KernelDirection dir)
{
    const bool dec = dir == KernelDirection::Decrypt;
    crypto::Blowfish ref;
    ref.setKey(key);

    KernelBuild b;
    // Memory image: four S-boxes on 1 KB frames, P-array, IV words.
    for (int box = 0; box < 4; box++) {
        b.memInit.emplace_back(
            tableAddr(box), words32(std::span<const uint32_t>(
                                ref.sBoxes()[box].data(), 256)));
    }
    b.memInit.emplace_back(subkey_region,
                           words32(std::span<const uint32_t>(
                               ref.pArray().data(), 18)));
    const uint32_t iv_words[2] = {util::load32be(iv.data()),
                                  util::load32be(iv.data() + 4)};
    b.memInit.emplace_back(iv_region, words32(iv_words));

    KernelCtx ctx(v);
    auto &as = ctx.as;
    auto &rp = ctx.regs;

    Reg in_ptr = rp.alloc(), out_ptr = rp.alloc(), count = rp.alloc();
    Reg cl = rp.alloc(), cr = rp.alloc(); // CBC chain
    Reg l = rp.alloc(), r = rp.alloc();
    Reg t0 = rp.alloc(), t1 = rp.alloc();
    Reg sc0 = rp.alloc(), sc1 = rp.alloc();
    Reg sbase[4];
    for (int i = 0; i < 4; i++)
        sbase[i] = rp.alloc();
    Reg p[18];
    for (int i = 0; i < 18; i++)
        p[i] = rp.alloc();

    // ----- session prologue -----
    ctx.cat(OpCategory::Arithmetic);
    as.li(b.inAddr, in_ptr);
    as.li(b.outAddr, out_ptr);
    as.li(static_cast<int64_t>(bytes / 8), count);
    for (int i = 0; i < 4; i++)
        as.li(static_cast<int64_t>(tableAddr(i)), sbase[i]);
    Reg kb = t0; // reuse scratch for base pointers
    as.li(subkey_region, kb);
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 18; i++)
        as.ldl(p[i], kb, 4 * i);
    ctx.cat(OpCategory::Arithmetic);
    as.li(iv_region, kb);
    ctx.cat(OpCategory::Memory);
    as.ldl(cl, kb, 0);
    as.ldl(cr, kb, 4);

    // F(x) accumulated into acc: ((S0[b3] + S1[b2]) ^ S2[b1]) + S3[b0].
    auto feistel = [&](Reg x, Reg acc) {
        ctx.sboxLoad(0, sbase[0], x, 3, acc, sc0);
        ctx.sboxLoad(1, sbase[1], x, 2, t1, sc1);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(acc, t1, acc);
        ctx.sboxLoadXor(2, sbase[2], x, 1, acc, t1, sc0);
        ctx.sboxLoad(3, sbase[3], x, 0, t1, sc1);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(acc, t1, acc);
    };

    // ----- block loop -----
    as.label("block");
    ctx.cat(OpCategory::Memory);
    as.ldl(l, in_ptr, 0);
    as.ldl(r, in_ptr, 4);
    if (!dec) {
        // CBC: XOR the running chain into the plaintext.
        ctx.cat(OpCategory::Logic);
        as.xor_(l, cl, l);
        as.xor_(r, cr, r);
    }

    // Decryption is the same Feistel ladder with the P-array walked
    // backwards: pairs (17,16)...(3,2) and final whitening (0,1).
    for (int i = 0; i < 16; i += 2) {
        int pa = dec ? 17 - i : i;
        int pb = dec ? 16 - i : i + 1;
        ctx.cat(OpCategory::Logic);
        as.xor_(l, p[pa], l);
        feistel(l, t0);
        ctx.cat(OpCategory::Logic);
        as.xor_(r, t0, r);
        as.xor_(r, p[pb], r);
        feistel(r, t0);
        ctx.cat(OpCategory::Logic);
        as.xor_(l, t0, l);
    }
    if (!dec) {
        // Whitening + final swap: ciphertext = (r ^ P17, l ^ P16),
        // which is also the next CBC chain value.
        ctx.cat(OpCategory::Logic);
        as.xor_(r, p[17], cl);
        as.xor_(l, p[16], cr);
        ctx.cat(OpCategory::Memory);
        as.stl(cl, out_ptr, 0);
        as.stl(cr, out_ptr, 4);
    } else {
        // Whitening + swap, then CBC-XOR with the chain; the chain
        // becomes this block's ciphertext (reloaded from the input).
        ctx.cat(OpCategory::Logic);
        as.xor_(r, p[0], t0);
        as.xor_(l, p[1], t1);
        as.xor_(t0, cl, t0);
        as.xor_(t1, cr, t1);
        ctx.cat(OpCategory::Memory);
        as.stl(t0, out_ptr, 0);
        as.stl(t1, out_ptr, 4);
        as.ldl(cl, in_ptr, 0);
        as.ldl(cr, in_ptr, 4);
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

KernelBuild
buildBlowfishSetupKernel(KernelVariant v, std::span<const uint8_t> key)
{
    if (key.size() != 16)
        throw std::invalid_argument(
            "buildBlowfishSetupKernel: 128-bit keys only");

    KernelBuild b;
    b.cipher = crypto::CipherId::Blowfish;
    b.variant = v;
    b.name = "Blowfish/" + variantName(v) + "/setup";
    b.sessionBytes = 0;

    // Memory image: pi-initialized P and S tables (pre-key), plus the
    // four key words XOR'ed cyclically into P. With a 16-byte key the
    // cyclic pattern is exactly four big-endian words.
    const auto &pi = crypto::Blowfish::piWords();
    b.memInit.emplace_back(subkey_region,
                           words32(std::span<const uint32_t>(pi.data(),
                                                             18)));
    for (int box = 0; box < 4; box++) {
        b.memInit.emplace_back(
            tableAddr(box),
            words32(std::span<const uint32_t>(pi.data() + 18 + 256 * box,
                                              256)));
    }
    uint32_t key_words[4];
    for (int i = 0; i < 4; i++)
        key_words[i] = util::load32be(key.data() + 4 * i);
    b.memInit.emplace_back(aux_region, words32(key_words));

    KernelCtx ctx(v);
    auto &as = ctx.as;
    auto &rp = ctx.regs;

    Reg pbase = rp.alloc(), kwbase = rp.alloc();
    Reg l = rp.alloc(), r = rp.alloc();
    Reg t0 = rp.alloc(), t1 = rp.alloc();
    Reg sc0 = rp.alloc(), sc1 = rp.alloc();
    Reg sptr = rp.alloc(), count = rp.alloc();
    Reg sbase[4];
    for (auto &reg : sbase)
        reg = rp.alloc();
    Reg p[18];
    for (auto &reg : p)
        reg = rp.alloc();
    Reg kw[4];
    for (auto &reg : kw)
        reg = rp.alloc();

    ctx.cat(OpCategory::Arithmetic);
    as.li(subkey_region, pbase);
    as.li(aux_region, kwbase);
    for (int i = 0; i < 4; i++)
        as.li(static_cast<int64_t>(tableAddr(i)), sbase[i]);

    // Phase 1: P[i] ^= key (cyclic), with P held in registers after.
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 4; i++)
        as.ldl(kw[i], kwbase, 4 * i);
    for (int i = 0; i < 18; i++)
        as.ldl(p[i], pbase, 4 * i);
    ctx.cat(OpCategory::Logic);
    for (int i = 0; i < 18; i++)
        as.xor_(p[i], kw[i % 4], p[i]);

    // The encryption ladder. Setup reads tables it is rewriting, so
    // the optimized variant must use the aliased SBOX form.
    auto feistel = [&](Reg x, Reg acc) {
        ctx.sboxLoad(0, sbase[0], x, 3, acc, sc0, /*aliased=*/true);
        ctx.sboxLoad(1, sbase[1], x, 2, t1, sc1, true);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(acc, t1, acc);
        ctx.sboxLoadXor(2, sbase[2], x, 1, acc, t1, sc0, true);
        ctx.sboxLoad(3, sbase[3], x, 0, t1, sc1, true);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(acc, t1, acc);
    };
    auto ladder = [&] {
        for (int i = 0; i < 16; i += 2) {
            ctx.cat(OpCategory::Logic);
            as.xor_(l, p[i], l);
            feistel(l, t0);
            ctx.cat(OpCategory::Logic);
            as.xor_(r, t0, r);
            as.xor_(r, p[i + 1], r);
            feistel(r, t0);
            ctx.cat(OpCategory::Logic);
            as.xor_(l, t0, l);
        }
        // Whitening + swap: (l, r) <- (r ^ P17, l ^ P16).
        ctx.cat(OpCategory::Logic);
        as.xor_(r, p[17], t0);
        as.xor_(l, p[16], t1);
        ctx.cat(OpCategory::Arithmetic);
        as.bis(t0, isa::reg_zero, l);
        as.bis(t1, isa::reg_zero, r);
    };

    // Phase 2: nine ladder applications refill the register P-array.
    ctx.cat(OpCategory::Arithmetic);
    as.li(0, l);
    as.li(0, r);
    for (int i = 0; i < 18; i += 2) {
        ladder();
        ctx.cat(OpCategory::Arithmetic);
        as.bis(l, isa::reg_zero, p[i]);
        as.bis(r, isa::reg_zero, p[i + 1]);
    }

    // Phase 3: 512 ladder applications refill the S-boxes (the tables
    // are contiguous 1 KB frames, so one running pointer suffices).
    ctx.cat(OpCategory::Arithmetic);
    as.li(static_cast<int64_t>(tableAddr(0)), sptr);
    as.li(512, count); // 4 boxes x 256 entries / 2 words per ladder
    as.label("fill");
    ladder();
    ctx.cat(OpCategory::Memory);
    as.stl(l, sptr, 0);
    as.stl(r, sptr, 4);
    ctx.cat(OpCategory::Arithmetic);
    as.addq(sptr, 8, sptr);
    as.subq(count, 1, count);
    ctx.cat(OpCategory::Control);
    as.bne(count, "fill");

    // Publish: P-array back to memory, then SBOXSYNC so subsequent
    // (non-aliased) SBOX instructions observe the new tables.
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 18; i++)
        as.stl(p[i], pbase, 4 * i);
    if (ctx.optimized()) {
        ctx.cat(OpCategory::Substitution);
        as.sboxsync();
    }
    as.halt();

    b.program = as.finalize();
    b.categories = takeCategories(ctx);
    return b;
}

} // namespace cryptarch::kernels
