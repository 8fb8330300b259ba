/**
 * @file
 * RC4 stream encryption kernel in CryptISA.
 *
 * RC4 is the suite's outlier: a key-based random number generator
 * whose iterations are mostly independent, and the only cipher that
 * *stores into* its substitution table. The optimized variant uses the
 * aliased form of SBOX (paper Figure 8's <aliased> flag): a load with
 * optimized address generation that still observes the swap stores,
 * implemented by treating it as a 2-cycle load in the memory ordering
 * queue.
 *
 * The table holds 32-bit entries (values 0..255) so that S[i] is
 * directly SBOX-addressable; the key schedule (run natively at build
 * time) provides the initial permutation state.
 */

#include "crypto/rc4.hh"
#include "kernels/builders.hh"
#include "kernels/emit.hh"

namespace cryptarch::kernels
{

using isa::Reg;

KernelBuild
buildRc4Kernel(KernelVariant v, std::span<const uint8_t> key,
               std::span<const uint8_t> iv, size_t bytes,
               KernelDirection dir)
{
    (void)iv;  // stream cipher: no chaining vector
    (void)dir; // XOR keystream: encryption and decryption coincide
    crypto::Rc4 ref;
    ref.setKey(key);

    KernelBuild b;
    std::vector<uint32_t> table(256);
    for (int i = 0; i < 256; i++)
        table[i] = ref.state()[i];
    b.memInit.emplace_back(tableAddr(0), words32(table));

    KernelCtx ctx(v);
    auto &as = ctx.as;
    auto &rp = ctx.regs;

    Reg in_ptr = rp.alloc(), out_ptr = rp.alloc(), count = rp.alloc();
    Reg sbase = rp.alloc();
    Reg i = rp.alloc(), j = rp.alloc();
    Reg si = rp.alloc(), sj = rp.alloc();
    Reg ai = rp.alloc(), aj = rp.alloc();
    Reg t = rp.alloc(), kstream = rp.alloc(), data = rp.alloc();
    Reg scratch = rp.alloc();

    ctx.cat(OpCategory::Arithmetic);
    as.li(b.inAddr, in_ptr);
    as.li(b.outAddr, out_ptr);
    as.li(static_cast<int64_t>(tableAddr(0)), sbase);
    as.li(0, i);
    as.li(0, j);

    // S[x] load: aliased SBOX when optimized, scaled load otherwise.
    // @p idx must hold a clean 0..255 value (byte 0 is the index).
    auto tableLoad = [&](Reg idx, Reg d) {
        ctx.cat(OpCategory::Substitution);
        if (ctx.optimized()) {
            as.sbox(0, 0, sbase, idx, d, /*aliased=*/true);
        } else {
            as.s4add(idx, sbase, scratch);
            as.ldl(d, scratch, 0);
        }
    };

    // One RC4 iteration processing the byte at pointer offset @p o.
    auto rc4Byte = [&](size_t o) {
        // i = (i + 1) & 0xff; j = (j + S[i]) & 0xff
        ctx.cat(OpCategory::Arithmetic);
        as.addl(i, 1, i);
        as.and_(i, 0xFF, i);
        tableLoad(i, si);
        ctx.cat(OpCategory::Arithmetic);
        as.addl(j, si, j);
        as.and_(j, 0xFF, j);
        tableLoad(j, sj);

        // swap S[i], S[j] — stores into the substitution table.
        ctx.cat(OpCategory::Substitution);
        as.s4add(i, sbase, ai);
        as.s4add(j, sbase, aj);
        as.stl(sj, ai, 0);
        as.stl(si, aj, 0);

        // keystream byte = S[(S[i] + S[j]) & 0xff]
        ctx.cat(OpCategory::Arithmetic);
        as.addl(si, sj, t);
        as.and_(t, 0xFF, t);
        tableLoad(t, kstream);

        ctx.cat(OpCategory::Memory);
        as.ldbu(data, in_ptr, static_cast<int64_t>(o));
        ctx.cat(OpCategory::Logic);
        as.xor_(data, kstream, data);
        ctx.cat(OpCategory::Memory);
        as.stb(data, out_ptr, static_cast<int64_t>(o));
    };

    // The paper treats RC4's "block" as 8 bytes (Table 1); the loop
    // is unrolled eightfold accordingly, which also exposes the
    // inter-iteration parallelism the paper highlights. A straight-
    // line epilogue handles ragged session tails.
    const size_t unroll = 8;
    const size_t main_bytes = bytes - bytes % unroll;
    if (main_bytes) {
        ctx.cat(OpCategory::Arithmetic);
        as.li(static_cast<int64_t>(main_bytes), count);
        as.label("blk8");
        for (size_t o = 0; o < unroll; o++)
            rc4Byte(o);
        ctx.cat(OpCategory::Arithmetic);
        as.addq(in_ptr, unroll, in_ptr);
        as.addq(out_ptr, unroll, out_ptr);
        as.subq(count, unroll, count);
        ctx.cat(OpCategory::Control);
        as.bne(count, "blk8");
    }
    for (size_t o = 0; o < bytes % unroll; o++)
        rc4Byte(o);
    as.halt();

    b.program = as.finalize();
    b.loopHead = as.labelPc("blk8");
    b.categories = takeCategories(ctx);
    return b;
}

} // namespace cryptarch::kernels
