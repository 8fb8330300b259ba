/**
 * @file
 * Rijndael (AES-128) CBC encryption kernel in CryptISA.
 *
 * The classic 32-bit software formulation: each of the nine middle
 * rounds is sixteen T-table lookups (four tables Te0..Te3, steered to
 * the four SBox caches on the 4W+ machine) plus twelve XORs and four
 * round-key loads. The final round substitutes through the raw S-box
 * (a replicated 256x32 table) and repositions bytes with shifts; those
 * accesses use the aliased SBOX form so they do not thrash the Te
 * sector caches between blocks.
 */

#include "crypto/rijndael.hh"
#include "kernels/builders.hh"
#include "kernels/emit.hh"
#include "util/bitops.hh"

namespace cryptarch::kernels
{

using isa::Reg;

KernelBuild
buildRijndaelKernel(KernelVariant v, std::span<const uint8_t> key,
                    std::span<const uint8_t> iv, size_t bytes,
                    KernelDirection dir)
{
    const bool dec = dir == KernelDirection::Decrypt;
    crypto::Rijndael ref;
    ref.setKey(key);

    KernelBuild b;
    // The equivalent inverse cipher has the same shape as encryption:
    // swap in the decryption T tables, the inverse S-box and the
    // inverse-ordered round keys, and reverse the ShiftRows direction.
    const auto &te = dec ? crypto::Rijndael::decTables()
                         : crypto::Rijndael::encTables();
    for (int i = 0; i < 4; i++) {
        b.memInit.emplace_back(tableAddr(i),
                               words32(std::span<const uint32_t>(
                                   te[i].data(), 256)));
    }
    // Final-round byte substitution table, zero-extended.
    const auto &final_box =
        dec ? crypto::Rijndael::invSbox() : crypto::Rijndael::sbox();
    std::vector<uint32_t> s32(256);
    for (int i = 0; i < 256; i++)
        s32[i] = final_box[i];
    b.memInit.emplace_back(tableAddr(4), words32(s32));

    const auto &rks = dec ? ref.decKeys() : ref.encKeys();
    b.memInit.emplace_back(subkey_region,
                           words32(std::span<const uint32_t>(
                               rks.data(), rks.size())));
    const uint32_t iv_words[4] = {
        util::load32be(iv.data()), util::load32be(iv.data() + 4),
        util::load32be(iv.data() + 8), util::load32be(iv.data() + 12)};
    b.memInit.emplace_back(iv_region, words32(iv_words));

    KernelCtx ctx(v);
    auto &as = ctx.as;
    auto &rp = ctx.regs;

    Reg in_ptr = rp.alloc(), out_ptr = rp.alloc(), count = rp.alloc();
    Reg kb = rp.alloc();
    Reg tbase[5];
    for (auto &r : tbase)
        r = rp.alloc();
    Reg ch[4], w[4], n[4];
    for (auto &r : ch)
        r = rp.alloc();
    for (auto &r : w)
        r = rp.alloc();
    for (auto &r : n)
        r = rp.alloc();
    Reg t = rp.alloc(), k = rp.alloc(), scratch = rp.alloc();

    ctx.cat(OpCategory::Arithmetic);
    as.li(b.inAddr, in_ptr);
    as.li(b.outAddr, out_ptr);
    as.li(static_cast<int64_t>(bytes / 16), count);
    as.li(subkey_region, kb);
    for (int i = 0; i < 5; i++)
        as.li(static_cast<int64_t>(tableAddr(i)), tbase[i]);
    Reg ivb = t;
    as.li(iv_region, ivb);
    ctx.cat(OpCategory::Memory);
    for (int i = 0; i < 4; i++)
        as.ldl(ch[i], ivb, 4 * i);

    // ShiftRows walks columns forward when encrypting, backward in
    // the equivalent inverse cipher.
    auto lane = [dec](int j, int k) {
        return dec ? (j + 4 - k) & 3 : (j + k) & 3;
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
    // Initial AddRoundKey.
    for (int i = 0; i < 4; i++) {
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4 * i);
        ctx.cat(OpCategory::Logic);
        as.xor_(w[i], k, w[i]);
    }

    // Middle rounds: n[j] = Te0[b3 w[j]] ^ Te1[b2 w[j+1]]
    //                      ^ Te2[b1 w[j+2]] ^ Te3[b0 w[j+3]] ^ rk.
    Reg *cur = w, *nxt = n;
    for (int round = 1; round < crypto::Rijndael::rounds; round++) {
        for (int j = 0; j < 4; j++) {
            ctx.sboxLoad(0, tbase[0], cur[j], 3, nxt[j], scratch);
            ctx.sboxLoadXor(1, tbase[1], cur[lane(j, 1)], 2, nxt[j], t,
                            scratch);
            ctx.sboxLoadXor(2, tbase[2], cur[lane(j, 2)], 1, nxt[j], t,
                            scratch);
            ctx.sboxLoadXor(3, tbase[3], cur[lane(j, 3)], 0, nxt[j], t,
                            scratch);
            ctx.cat(OpCategory::Memory);
            as.ldl(k, kb, 4 * (4 * round + j));
            ctx.cat(OpCategory::Logic);
            as.xor_(nxt[j], k, nxt[j]);
        }
        std::swap(cur, nxt);
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey.
    for (int j = 0; j < 4; j++) {
        // byte 3 (MSB) from cur[j], byte 2 from cur[j+1], ...
        ctx.sboxLoad(4, tbase[4], cur[j], 3, nxt[j], scratch,
                     /*aliased=*/true);
        ctx.cat(OpCategory::Logic);
        as.sll32(nxt[j], 24, nxt[j]);
        ctx.sboxLoad(4, tbase[4], cur[lane(j, 1)], 2, t, scratch, true);
        ctx.cat(OpCategory::Logic);
        as.sll32(t, 16, t);
        as.bis(nxt[j], t, nxt[j]);
        ctx.sboxLoad(4, tbase[4], cur[lane(j, 2)], 1, t, scratch, true);
        ctx.cat(OpCategory::Logic);
        as.sll32(t, 8, t);
        as.bis(nxt[j], t, nxt[j]);
        ctx.sboxLoad(4, tbase[4], cur[lane(j, 3)], 0, t, scratch, true);
        ctx.cat(OpCategory::Logic);
        as.bis(nxt[j], t, nxt[j]);
        ctx.cat(OpCategory::Memory);
        as.ldl(k, kb, 4 * (4 * crypto::Rijndael::rounds + j));
        ctx.cat(OpCategory::Logic);
        as.xor_(nxt[j], k, nxt[j]);
    }

    if (!dec) {
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.stl(nxt[i], out_ptr, 4 * i);
        ctx.cat(OpCategory::Arithmetic);
        for (int i = 0; i < 4; i++)
            as.bis(nxt[i], isa::reg_zero, ch[i]);
    } else {
        ctx.cat(OpCategory::Logic);
        for (int i = 0; i < 4; i++)
            as.xor_(nxt[i], ch[i], nxt[i]);
        ctx.cat(OpCategory::Memory);
        for (int i = 0; i < 4; i++)
            as.stl(nxt[i], out_ptr, 4 * i);
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
