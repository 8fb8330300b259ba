#include "verify/oracle.hh"

#include <cstdio>

#include "crypto/cbc.hh"

namespace cryptarch::verify
{

namespace
{

std::string
mismatchMessage(const std::string &kernel, size_t offset,
                uint8_t expected, uint8_t actual)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "verify failed: %s output byte %zu is 0x%02x, "
                  "reference cipher says 0x%02x",
                  kernel.c_str(), offset, actual, expected);
    return buf;
}

} // namespace

VerifyError::VerifyError(const std::string &kernel, size_t offset,
                         uint8_t expected, uint8_t actual)
    : std::runtime_error(mismatchMessage(kernel, offset, expected,
                                         actual)),
      kernel_(kernel), offset_(offset), expected_(expected),
      actual_(actual)
{
}

std::vector<uint8_t>
referenceProcess(crypto::CipherId id, std::span<const uint8_t> key,
                 std::span<const uint8_t> iv,
                 std::span<const uint8_t> input,
                 kernels::KernelDirection direction)
{
    if (id == crypto::CipherId::RC4) {
        auto rc4 = crypto::makeStreamCipher(id);
        rc4->setKey(key);
        std::vector<uint8_t> out(input.size());
        rc4->process(input.data(), out.data(), input.size());
        return out;
    }
    auto cipher = crypto::makeBlockCipher(id);
    cipher->setKey(key);
    if (direction == kernels::KernelDirection::Encrypt) {
        crypto::CbcEncryptor enc(*cipher, iv);
        return enc.encrypt(input);
    }
    crypto::CbcDecryptor dec(*cipher, iv);
    return dec.decrypt(input);
}

void
verifyKernelOutput(const kernels::KernelBuild &build,
                   const isa::Machine &m, std::span<const uint8_t> key,
                   std::span<const uint8_t> iv,
                   std::span<const uint8_t> input,
                   kernels::KernelDirection direction)
{
    const auto expect =
        referenceProcess(build.cipher, key, iv, input, direction);
    const auto actual =
        kernels::fromWordImage(build.cipher, build.readOutput(m));
    if (expect.size() != actual.size())
        throw VerifyError(build.name, std::min(expect.size(),
                                               actual.size()),
                          0, 0);
    for (size_t i = 0; i < expect.size(); i++)
        if (expect[i] != actual[i])
            throw VerifyError(build.name, i, expect[i], actual[i]);
}

} // namespace cryptarch::verify
