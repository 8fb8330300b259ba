#include "kernels/emit.hh"

namespace cryptarch::kernels
{

void
KernelCtx::rotl32i(Reg a, unsigned n, Reg d, Reg scratch)
{
    n &= 31;
    cat(OpCategory::Rotate);
    if (hasRotates()) {
        as.rol32(a, static_cast<int64_t>(n), d);
        return;
    }
    if (n == 0) {
        as.bis(a, isa::reg_zero, d);
        return;
    }
    // 3 instructions, 2 cycles (the paper's synthesized constant
    // rotate): the two shifts are independent.
    as.sll32(a, n, scratch);
    as.srl32(a, 32 - n, d);
    as.bis(scratch, d, d);
}

void
KernelCtx::rotr32i(Reg a, unsigned n, Reg d, Reg scratch)
{
    rotl32i(a, (32 - (n & 31)) & 31, d, scratch);
}

void
KernelCtx::rotl32v(Reg a, Reg b, Reg d, Reg s1, Reg s2)
{
    cat(OpCategory::Rotate);
    if (hasRotates()) {
        as.rol32(a, b, d);
        return;
    }
    // 4 instructions, 3 cycles: negate (32-b mod 32), two shifts, or.
    as.sll32(a, b, s1);
    as.subl(isa::reg_zero, b, s2);
    as.srl32(a, s2, d);
    as.bis(s1, d, d);
}

void
KernelCtx::rotr32v(Reg a, Reg b, Reg d, Reg s1, Reg s2)
{
    cat(OpCategory::Rotate);
    if (hasRotates()) {
        as.ror32(a, b, d);
        return;
    }
    as.srl32(a, b, s1);
    as.subl(isa::reg_zero, b, s2);
    as.sll32(a, s2, d);
    as.bis(s1, d, d);
}

void
KernelCtx::sboxLoad(unsigned table_id, Reg table_base, Reg x,
                    unsigned byte_sel, Reg d, Reg scratch, bool aliased)
{
    cat(OpCategory::Substitution);
    if (optimized()) {
        as.sbox(table_id, byte_sel, table_base, x, d, aliased);
        return;
    }
    // extract byte, scale-and-add, load: 3 instructions / 5 cycles.
    as.extbl(x, static_cast<int64_t>(byte_sel), scratch);
    as.s4add(scratch, table_base, scratch);
    as.ldl(d, scratch, 0);
}

void
KernelCtx::sboxLoadXor(unsigned table_id, Reg table_base, Reg x,
                       unsigned byte_sel, Reg acc, Reg t, Reg scratch,
                       bool aliased)
{
    if (fused()) {
        cat(OpCategory::Substitution);
        as.sboxx(table_id, byte_sel, table_base, x, acc, aliased);
        return;
    }
    sboxLoad(table_id, table_base, x, byte_sel, t, scratch, aliased);
    cat(OpCategory::Logic);
    as.xor_(acc, t, acc);
}

void
KernelCtx::mul32(Reg a, Reg b, Reg d)
{
    cat(OpCategory::Multiply);
    if (optimized())
        as.mull(a, b, d);
    else
        as.mulq(a, b, d);
}

void
KernelCtx::mulmod16(Reg a, Reg b, Reg d, Reg t, Reg s, Reg const_one)
{
    cat(OpCategory::Multiply);
    if (optimized()) {
        as.mulmod(a, b, d);
        return;
    }
    std::string zero_case = uniqueLabel("mmz");
    std::string done = uniqueLabel("mme");
    // Typical path: stock multiply then Lai's lo-hi correction. The
    // product of two 16-bit operands fits 32 bits, so the 64-bit
    // result is directly usable.
    as.mulq(a, b, t);
    as.beq(t, zero_case);
    as.and_(t, 0xFFFF, d);   // lo
    as.srl32(t, 16, t);      // hi
    as.cmpult(d, t, s);      // carry when lo < hi
    as.subl(d, t, d);
    as.addl(d, s, d);
    as.and_(d, 0xFFFF, d);
    as.br(done);
    as.label(zero_case);
    // One operand encodes 2^16: result = (1 - a - b) mod 2^16.
    as.addl(a, b, d);
    as.subl(const_one, d, d);
    as.and_(d, 0xFFFF, d);
    as.label(done);
}

std::vector<OpCategory>
takeCategories(KernelCtx &ctx)
{
    ctx.sync();
    return std::move(ctx.cats);
}

} // namespace cryptarch::kernels
