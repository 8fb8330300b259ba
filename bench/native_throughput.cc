/**
 * @file
 * google-benchmark wall-clock throughput of the reference cipher
 * library on the host machine (not a paper figure; a sanity check
 * that the reference implementations are usably fast and a baseline
 * for anyone adopting the library).
 *
 * The kernelExec benchmarks put the CryptISA interpreter on the same
 * axis: the Optimized kernel of each cipher executed functionally (no
 * trace sink) over a standard session, reported in bytes/second
 * exactly like the native library loops above them, so the gap between
 * the record phase and native host code is one table in one binary.
 */

#include <benchmark/benchmark.h>

#include "crypto/cbc.hh"
#include "crypto/cipher.hh"
#include "driver/workload.hh"
#include "isa/machine.hh"
#include "kernels/kernel.hh"
#include "util/xorshift.hh"

namespace
{

using namespace cryptarch;

void
blockCipherCbc(benchmark::State &state, crypto::CipherId id)
{
    const auto &info = crypto::cipherInfo(id);
    util::Xorshift64 rng(1);
    auto cipher = crypto::makeBlockCipher(id);
    cipher->setKey(rng.bytes(info.keyBits / 8));
    auto iv = rng.bytes(info.blockBytes);
    auto pt = rng.bytes(4096);
    std::vector<uint8_t> ct(pt.size());
    crypto::CbcEncryptor enc(*cipher, iv);
    for (auto _ : state) {
        enc.encrypt(pt, ct);
        benchmark::DoNotOptimize(ct.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(pt.size()));
}

void
rc4Stream(benchmark::State &state)
{
    util::Xorshift64 rng(2);
    auto rc4 = crypto::makeStreamCipher(crypto::CipherId::RC4);
    rc4->setKey(rng.bytes(16));
    auto pt = rng.bytes(4096);
    std::vector<uint8_t> ct(pt.size());
    for (auto _ : state) {
        rc4->process(pt.data(), ct.data(), pt.size());
        benchmark::DoNotOptimize(ct.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(pt.size()));
}

/**
 * One functional execution of the cipher's Optimized kernel per
 * iteration on the interpreter. The kernel image is reinstalled each
 * iteration (machine state is consumed by a run), mirroring the native
 * loops' per-iteration input/output traffic.
 */
void
kernelExec(benchmark::State &state, crypto::CipherId id)
{
    auto w = driver::makeWorkload(id, driver::session_bytes);
    auto build =
        kernels::buildKernel(id, kernels::KernelVariant::Optimized, w.key,
                             w.iv, driver::session_bytes,
                             kernels::KernelDirection::Encrypt);
    const auto image = kernels::toWordImage(id, w.plaintext);
    isa::Machine m;
    for (auto _ : state) {
        build.install(m, image);
        auto stats = m.run(build.program);
        benchmark::DoNotOptimize(stats.instructions);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(driver::session_bytes));
}

void
keySetup(benchmark::State &state, crypto::CipherId id)
{
    const auto &info = crypto::cipherInfo(id);
    util::Xorshift64 rng(3);
    auto cipher = crypto::makeBlockCipher(id);
    auto key = rng.bytes(info.keyBits / 8);
    for (auto _ : state) {
        cipher->setKey(key);
        benchmark::DoNotOptimize(cipher.get());
    }
}

} // namespace

BENCHMARK_CAPTURE(blockCipherCbc, 3DES, crypto::CipherId::TripleDES);
BENCHMARK_CAPTURE(blockCipherCbc, Blowfish, crypto::CipherId::Blowfish);
BENCHMARK_CAPTURE(blockCipherCbc, IDEA, crypto::CipherId::IDEA);
BENCHMARK_CAPTURE(blockCipherCbc, Mars, crypto::CipherId::MARS);
BENCHMARK_CAPTURE(blockCipherCbc, RC6, crypto::CipherId::RC6);
BENCHMARK_CAPTURE(blockCipherCbc, Rijndael, crypto::CipherId::Rijndael);
BENCHMARK_CAPTURE(blockCipherCbc, Twofish, crypto::CipherId::Twofish);
BENCHMARK(rc4Stream);
BENCHMARK_CAPTURE(kernelExec, 3DES, crypto::CipherId::TripleDES);
BENCHMARK_CAPTURE(kernelExec, Blowfish, crypto::CipherId::Blowfish);
BENCHMARK_CAPTURE(kernelExec, IDEA, crypto::CipherId::IDEA);
BENCHMARK_CAPTURE(kernelExec, Mars, crypto::CipherId::MARS);
BENCHMARK_CAPTURE(kernelExec, RC4, crypto::CipherId::RC4);
BENCHMARK_CAPTURE(kernelExec, RC6, crypto::CipherId::RC6);
BENCHMARK_CAPTURE(kernelExec, Rijndael, crypto::CipherId::Rijndael);
BENCHMARK_CAPTURE(kernelExec, Twofish, crypto::CipherId::Twofish);
BENCHMARK_CAPTURE(keySetup, Blowfish, crypto::CipherId::Blowfish);
BENCHMARK_CAPTURE(keySetup, Twofish, crypto::CipherId::Twofish);
BENCHMARK_CAPTURE(keySetup, Rijndael, crypto::CipherId::Rijndael);

BENCHMARK_MAIN();
