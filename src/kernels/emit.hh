/**
 * @file
 * Shared code-generation helpers for the cipher kernels.
 *
 * KernelCtx wraps the assembler with (a) per-instruction Figure 7
 * category tracking and (b) variant-aware emission of the operations
 * the paper's extensions target: rotates, S-box accesses and modular
 * multiplies. The instruction counts of the baseline expansions match
 * the paper's accounting (3-instruction constant rotate, 4-instruction
 * variable rotate, 3-instruction S-box access).
 */

#ifndef CRYPTARCH_KERNELS_EMIT_HH
#define CRYPTARCH_KERNELS_EMIT_HH

#include <string>

#include "isa/program.hh"
#include "kernels/kernel.hh"

namespace cryptarch::kernels
{

using isa::Reg;

/** Emission context shared by all kernel builders. */
class KernelCtx
{
  public:
    explicit KernelCtx(KernelVariant variant) : variant(variant) {}

    isa::Assembler as;
    isa::RegPool regs;
    KernelVariant variant;

    bool
    hasRotates() const
    {
        return variant != KernelVariant::BaselineNoRot;
    }

    bool
    optimized() const
    {
        return variant == KernelVariant::Optimized
            || variant == KernelVariant::OptimizedGrp
            || variant == KernelVariant::OptimizedFused;
    }

    bool fused() const { return variant == KernelVariant::OptimizedFused; }

    /** Set the category applied to subsequently emitted instructions. */
    void
    cat(OpCategory c)
    {
        sync();
        current = c;
    }

    /** Pad the category list up to the emitted instruction count. */
    void
    sync()
    {
        while (cats.size() < as.size())
            cats.push_back(current);
    }

    /** Unique label factory for expansion-internal branches. */
    std::string
    uniqueLabel(const std::string &prefix)
    {
        return prefix + "$" + std::to_string(labelCounter++);
    }

    // ----- variant-aware operation emitters -----

    /** d = rotl32(a, n); clobbers @p scratch in baseline variants. */
    void rotl32i(Reg a, unsigned n, Reg d, Reg scratch);
    /** d = rotr32(a, n). */
    void rotr32i(Reg a, unsigned n, Reg d, Reg scratch);
    /** d = rotl32(a, b) for variable b; clobbers two scratches. */
    void rotl32v(Reg a, Reg b, Reg d, Reg s1, Reg s2);
    /** d = rotr32(a, b). */
    void rotr32v(Reg a, Reg b, Reg d, Reg s1, Reg s2);

    /**
     * d = MEM32[table + 4 * byte(x, byte_sel)] — one S-box access.
     * Optimized: a single SBOX instruction steered to @p table_id.
     * Baseline: extract + scaled-add + load (3 insts, 5 cycles).
     */
    void sboxLoad(unsigned table_id, Reg table_base, Reg x,
                  unsigned byte_sel, Reg d, Reg scratch,
                  bool aliased = false);

    /**
     * acc ^= MEM32[table + 4 * byte(x, byte_sel)] — an S-box access
     * folded into an XOR accumulation. One SBOXX instruction in the
     * OptimizedFused variant; an S-box access plus an XOR otherwise.
     * @p t receives the loaded value in the unfused forms.
     */
    void sboxLoadXor(unsigned table_id, Reg table_base, Reg x,
                     unsigned byte_sel, Reg acc, Reg t, Reg scratch,
                     bool aliased = false);

    /**
     * d = (a * b) mod 0x10001 with IDEA's zero convention, for clean
     * 16-bit operands. Optimized: one MULMOD. Baseline: multiply plus
     * Lai's low-high correction with a zero-operand fixup branch.
     * @p const_one must hold 1. Clobbers @p t and @p s.
     */
    void mulmod16(Reg a, Reg b, Reg d, Reg t, Reg s, Reg const_one);

    /**
     * d = low 32 bits of a * b. The baseline uses the stock 7-cycle
     * multiplier (Alpha's MULL latency); the optimized variant uses
     * the paper's word-sized multiply with the 4-cycle early-out
     * ("the 4W model also supports optimized multiplication").
     */
    void mul32(Reg a, Reg b, Reg d);

  private:
    std::vector<OpCategory> cats;
    OpCategory current = OpCategory::Arithmetic;
    unsigned labelCounter = 0;

    friend std::vector<OpCategory> takeCategories(KernelCtx &ctx);
};

/** Finalize category tracking and hand the list over. */
std::vector<OpCategory> takeCategories(KernelCtx &ctx);

} // namespace cryptarch::kernels

#endif // CRYPTARCH_KERNELS_EMIT_HH
