#include "kernels/kernel.hh"

#include <stdexcept>

#include "kernels/builders.hh"
#include "util/bitops.hh"

namespace cryptarch::kernels
{

using crypto::CipherId;

std::string
variantName(KernelVariant v)
{
    switch (v) {
      case KernelVariant::BaselineNoRot:
        return "baseline-norot";
      case KernelVariant::BaselineRot:
        return "baseline-rot";
      case KernelVariant::Optimized:
        return "optimized";
      case KernelVariant::OptimizedGrp:
        return "optimized-grp";
      case KernelVariant::OptimizedFused:
        return "optimized-fused";
    }
    return "?";
}

std::string
directionName(KernelDirection d)
{
    return d == KernelDirection::Encrypt ? "encrypt" : "decrypt";
}

std::string
categoryName(OpCategory c)
{
    switch (c) {
      case OpCategory::Arithmetic: return "Arithmetic";
      case OpCategory::Logic: return "Logic";
      case OpCategory::Rotate: return "Rotates";
      case OpCategory::Multiply: return "Multiplies";
      case OpCategory::Substitution: return "Substitutions";
      case OpCategory::Permute: return "Permutes";
      case OpCategory::Memory: return "Loads/Stores";
      case OpCategory::Control: return "Control";
    }
    return "?";
}

std::vector<uint8_t>
words32(std::span<const uint32_t> ws)
{
    std::vector<uint8_t> out(ws.size() * 4);
    for (size_t i = 0; i < ws.size(); i++)
        util::store32le(out.data() + 4 * i, ws[i]);
    return out;
}

std::vector<uint8_t>
words16To32(std::span<const uint16_t> ws)
{
    std::vector<uint8_t> out(ws.size() * 4);
    for (size_t i = 0; i < ws.size(); i++)
        util::store32le(out.data() + 4 * i, ws[i]);
    return out;
}

std::vector<uint8_t>
words64(std::span<const uint64_t> ws)
{
    std::vector<uint8_t> out(ws.size() * 8);
    for (size_t i = 0; i < ws.size(); i++) {
        util::store32le(out.data() + 8 * i, static_cast<uint32_t>(ws[i]));
        util::store32le(out.data() + 8 * i + 4,
                        static_cast<uint32_t>(ws[i] >> 32));
    }
    return out;
}

namespace
{

/** Word layout of a cipher's kernel I/O. */
struct WordLayout
{
    unsigned wordBytes;  ///< 1 (raw), 2 or 4
    bool bigEndian;      ///< cipher reads words big-endian from bytes
};

WordLayout
layoutOf(CipherId id)
{
    switch (id) {
      case CipherId::TripleDES:
      case CipherId::Blowfish:
        return {4, true};
      case CipherId::IDEA:
        return {2, true};
      case CipherId::Rijndael:
        return {4, true};
      case CipherId::MARS:
      case CipherId::RC6:
      case CipherId::Twofish:
        return {4, false};
      case CipherId::RC4:
        return {1, false};
    }
    throw std::invalid_argument("layoutOf: unknown cipher");
}

} // namespace

std::vector<uint8_t>
toWordImage(CipherId cipher, std::span<const uint8_t> bytes)
{
    WordLayout l = layoutOf(cipher);
    if (l.wordBytes == 1 || !l.bigEndian)
        return {bytes.begin(), bytes.end()};
    if (bytes.size() % l.wordBytes != 0)
        throw std::invalid_argument("toWordImage: ragged input");
    std::vector<uint8_t> out(bytes.size());
    for (size_t i = 0; i < bytes.size(); i += l.wordBytes) {
        for (unsigned j = 0; j < l.wordBytes; j++)
            out[i + j] = bytes[i + (l.wordBytes - 1 - j)];
    }
    return out;
}

std::vector<uint8_t>
fromWordImage(CipherId cipher, std::span<const uint8_t> image)
{
    // Byte reversal per word is an involution.
    return toWordImage(cipher, image);
}

void
KernelBuild::install(isa::Machine &m,
                     std::span<const uint8_t> in_image) const
{
    if (in_image.size() != sessionBytes)
        throw std::invalid_argument("KernelBuild::install: bad input size");
    for (const auto &[addr, bytes] : memInit)
        m.writeMem(addr, bytes);
    m.writeMem(inAddr, {in_image.begin(), in_image.end()});
}

std::vector<uint8_t>
KernelBuild::readOutput(const isa::Machine &m) const
{
    return m.readMem(outAddr, sessionBytes);
}

KernelBuild
buildKernel(CipherId cipher, KernelVariant variant,
            std::span<const uint8_t> key, std::span<const uint8_t> iv,
            size_t session_bytes, KernelDirection direction)
{
    const auto &info = crypto::cipherInfo(cipher);
    if (cipher != CipherId::RC4 && session_bytes % info.blockBytes != 0)
        throw std::invalid_argument(
            "buildKernel: session not a whole number of blocks");
    if (session_bytes == 0)
        throw std::invalid_argument("buildKernel: empty session");

    KernelBuild b;
    switch (cipher) {
      case CipherId::Blowfish:
        b = buildBlowfishKernel(variant, key, iv, session_bytes,
                               direction);
        break;
      case CipherId::IDEA:
        b = buildIdeaKernel(variant, key, iv, session_bytes,
                               direction);
        break;
      case CipherId::RC6:
        b = buildRc6Kernel(variant, key, iv, session_bytes,
                               direction);
        break;
      case CipherId::RC4:
        b = buildRc4Kernel(variant, key, iv, session_bytes,
                               direction);
        break;
      case CipherId::Rijndael:
        b = buildRijndaelKernel(variant, key, iv, session_bytes,
                               direction);
        break;
      case CipherId::Twofish:
        b = buildTwofishKernel(variant, key, iv, session_bytes,
                               direction);
        break;
      case CipherId::MARS:
        b = buildMarsKernel(variant, key, iv, session_bytes,
                               direction);
        break;
      case CipherId::TripleDES:
        b = buildTripleDesKernel(variant, key, iv, session_bytes,
                               direction);
        break;
    }
    b.cipher = cipher;
    b.variant = variant;
    b.name = info.name + "/" + variantName(variant) + "/"
        + directionName(direction);
    b.sessionBytes = session_bytes;
    return b;
}

} // namespace cryptarch::kernels
