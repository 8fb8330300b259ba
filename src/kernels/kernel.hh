/**
 * @file
 * Cipher kernels hand-coded in CryptISA.
 *
 * For every cipher in the suite a kernel is provided in three variants:
 *
 *  - BaselineNoRot  the stock Alpha-like ISA: rotates synthesized from
 *                   shifts (3 insts constant / 4 variable), S-box reads
 *                   via extract/scale/load (3 insts, 5 cycles), modular
 *                   multiplies via multiply-and-correct sequences,
 *                   permutations via shift/mask swap networks.
 *  - BaselineRot    the same code with hardware ROL/ROR (the paper's
 *                   normalization target — "many architectures have
 *                   fast rotates").
 *  - Optimized      the full extension set: SBOX substitutions,
 *                   MULMOD, ROLX/RORX combining, XBOX permutations.
 *
 * Every kernel encrypts a whole CBC session (IV load, per-block
 * chaining, block loop) so the dynamic trace includes the real loop
 * structure. Kernels are validated byte-for-byte against the reference
 * ciphers (tests/kernels/).
 *
 * I/O convention: block data crosses kernel memory in the cipher's
 * natural word layout (the words an Alpha implementation would load
 * with 32-bit loads). toWordImage()/fromWordImage() convert between
 * raw byte streams and that layout.
 */

#ifndef CRYPTARCH_KERNELS_KERNEL_HH
#define CRYPTARCH_KERNELS_KERNEL_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/cipher.hh"
#include "isa/machine.hh"
#include "isa/program.hh"

namespace cryptarch::kernels
{

/** Code-generation variant (see file header). */
enum class KernelVariant
{
    BaselineNoRot,
    BaselineRot,
    Optimized,
    /**
     * Optimized, with general permutations performed by Shi & Lee's
     * GRP instruction instead of XBOX (the enhancement the paper's
     * related-work section reports being underway: 5 instructions per
     * 32-bit permutation instead of 7, log2(n) GRP steps). Only 3DES
     * has in-kernel permutations, so every other cipher's kernel is
     * identical to Optimized.
     */
    OptimizedGrp,
    /**
     * Optimized, plus the fused substitute-and-XOR instruction SBOXX —
     * the paper's *future work* ("four operand instructions to permit
     * increased operation combining", section 8), which it excluded
     * from the main proposal because a third register read port slows
     * the register file. The ablation_fused bench quantifies what the
     * extra port would buy on the substitution ciphers.
     */
    OptimizedFused,
};

/** Name of a variant for reports. */
std::string variantName(KernelVariant v);

/**
 * Kernel direction. The paper measures encryption only, noting
 * "because of the symmetry between the encryption and decryption
 * algorithms, performance was comparable for these codes for all
 * experiments" (footnote 1); the decryption kernels exist to let a
 * user verify that claim and to make the library complete.
 */
enum class KernelDirection
{
    Encrypt,
    Decrypt,
};

/** Name of a direction for reports. */
std::string directionName(KernelDirection d);

/**
 * Operation category for the Figure 7 kernel characterization. Each
 * static instruction is classified when the kernel is emitted (the
 * paper classified its instructions by hand the same way).
 */
enum class OpCategory : uint8_t
{
    Arithmetic,   ///< adds/subs/moves incl. address arithmetic
    Logic,        ///< XOR/AND/OR
    Rotate,       ///< rotates (incl. synthesized rotate sequences)
    Multiply,     ///< multiplies and modular-multiply sequences
    Substitution, ///< S-box accesses (SBOX or load sequences)
    Permute,      ///< general bit permutations (XBOX or swap networks)
    Memory,       ///< other loads/stores (data, keys, IV)
    Control,      ///< branches
};

constexpr unsigned num_op_categories = 8;

/** Category display name (Figure 7 legend). */
std::string categoryName(OpCategory c);

/** A fully built kernel: program + memory image + I/O map. */
struct KernelBuild
{
    std::string name;
    crypto::CipherId cipher;
    KernelVariant variant;

    isa::Program program;
    /** Per static instruction, the Figure 7 category. */
    std::vector<OpCategory> categories;
    /** Initial memory contents: (address, bytes) pairs. */
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> memInit;

    uint64_t inAddr = 0x100000;
    uint64_t outAddr = 0x200000;
    /** Bytes of plaintext processed per run. */
    size_t sessionBytes = 0;
    /**
     * Pc of the block loop's head (the `block` label, `blk8` for
     * RC4): it executes once per block (8 bytes for RC4), so the
     * trace positions carrying it split the run into prologue and
     * iterations. Empty when the kernel has no block loop (an RC4
     * session shorter than 8 bytes).
     */
    std::optional<uint32_t> loopHead;

    /**
     * Install tables/keys and the plaintext word image into a
     * Machine. @p in_image must be sessionBytes long (see
     * toWordImage).
     */
    void install(isa::Machine &m,
                 std::span<const uint8_t> in_image) const;

    /** Read back the ciphertext word image after a run. */
    std::vector<uint8_t> readOutput(const isa::Machine &m) const;
};

/**
 * Build the kernel for @p cipher/@p variant keyed with @p key, chaining
 * from @p iv, processing @p session_bytes (a multiple of the block
 * size; RC4 ignores the IV). Decrypt kernels consume ciphertext in
 * the input buffer and produce plaintext (CBC chaining reversed).
 */
KernelBuild buildKernel(crypto::CipherId cipher, KernelVariant variant,
                        std::span<const uint8_t> key,
                        std::span<const uint8_t> iv, size_t session_bytes,
                        KernelDirection direction
                            = KernelDirection::Encrypt);

/**
 * Blowfish key-setup kernel: XOR the key into the pi-initialized
 * P-array and replace P and all four S-boxes with 521 successive
 * encryptions of the zero block — the Figure 6 outlier, here runnable
 * in the simulator so its cost is measured rather than estimated. The
 * optimized variant uses aliased SBOX accesses (setup mutates the
 * tables it reads) and ends with SBOXSYNC, the placement the paper
 * prescribes ("always at the end of key setup routines").
 *
 * After a run, the expanded P-array is at the subkey region and the
 * S-boxes on their table frames, ready for the encryption kernel.
 */
KernelBuild buildBlowfishSetupKernel(KernelVariant variant,
                                     std::span<const uint8_t> key);

/** Convert a raw byte stream into the cipher's kernel word layout. */
std::vector<uint8_t> toWordImage(crypto::CipherId cipher,
                                 std::span<const uint8_t> bytes);

/** Convert a kernel word image back into the raw byte stream. */
std::vector<uint8_t> fromWordImage(crypto::CipherId cipher,
                                   std::span<const uint8_t> image);

/**
 * Dynamic operation-mix collector (Figure 7): counts retired
 * instructions per category using the kernel's static classification.
 */
class OpMixCounter : public isa::TraceSink
{
  public:
    explicit OpMixCounter(const KernelBuild &build) : build(build) {}

    void
    emit(const isa::DynInst &inst) override
    {
        if (inst.pc < build.categories.size())
            counts[static_cast<size_t>(build.categories[inst.pc])]++;
        total++;
    }

    uint64_t count(OpCategory c) const
    {
        return counts[static_cast<size_t>(c)];
    }

    double
    fraction(OpCategory c) const
    {
        return total ? static_cast<double>(count(c)) / total : 0.0;
    }

  private:
    const KernelBuild &build;
    std::array<uint64_t, num_op_categories> counts{};
    uint64_t total = 0;
};

} // namespace cryptarch::kernels

#endif // CRYPTARCH_KERNELS_KERNEL_HH
