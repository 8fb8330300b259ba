/**
 * @file
 * Record-time result oracle.
 *
 * The paper's argument rests on the simulated kernels computing the
 * same ciphertext as the reference ciphers while the timing model
 * stays honest. The oracle enforces the first half mechanically: after
 * any functional kernel run, the machine's output buffer is compared
 * byte-for-byte against the reference cipher (CBC chaining for block
 * ciphers, the keystream for RC4; decrypt kernels against reference
 * round-trip recovery). A kernel or ISA regression therefore surfaces
 * at the source as a typed VerifyError naming the first corrupt byte,
 * never as a silently wrong figure.
 */

#ifndef CRYPTARCH_VERIFY_ORACLE_HH
#define CRYPTARCH_VERIFY_ORACLE_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/machine.hh"
#include "kernels/kernel.hh"

namespace cryptarch::verify
{

/**
 * Kernel output disagreed with the reference cipher. Carries the first
 * mismatching byte offset and the expected/actual values there; the
 * what() string names the kernel and all three.
 */
class VerifyError : public std::runtime_error
{
  public:
    VerifyError(const std::string &kernel, size_t offset,
                uint8_t expected, uint8_t actual);

    const std::string &kernel() const { return kernel_; }
    size_t offset() const { return offset_; }
    uint8_t expected() const { return expected_; }
    uint8_t actual() const { return actual_; }

  private:
    std::string kernel_;
    size_t offset_;
    uint8_t expected_;
    uint8_t actual_;
};

/**
 * Reference processing of a whole session through the src/crypto/
 * oracles: CBC encrypt/decrypt for block ciphers, the RC4 keystream
 * for the stream cipher (direction-independent).
 */
std::vector<uint8_t> referenceProcess(crypto::CipherId id,
                                      std::span<const uint8_t> key,
                                      std::span<const uint8_t> iv,
                                      std::span<const uint8_t> input,
                                      kernels::KernelDirection direction);

/**
 * Compare @p build's output buffer in @p m against the reference
 * processing of @p input (raw bytes, pre word-image conversion) under
 * @p key / @p iv. Throws VerifyError on the first mismatch.
 */
void verifyKernelOutput(const kernels::KernelBuild &build,
                        const isa::Machine &m,
                        std::span<const uint8_t> key,
                        std::span<const uint8_t> iv,
                        std::span<const uint8_t> input,
                        kernels::KernelDirection direction
                            = kernels::KernelDirection::Encrypt);

} // namespace cryptarch::verify

#endif // CRYPTARCH_VERIFY_ORACLE_HH
