/**
 * @file
 * isa_explorer: run any cipher kernel on any machine model and dump
 * the microarchitectural picture — the tool-style workflow the paper
 * used (SimpleScalar + SimpleView) to find cipher bottlenecks.
 *
 * Usage:
 *   isa_explorer [cipher] [variant] [model] [bytes] [dir]
 *     cipher   3des|blowfish|idea|mars|rc4|rc6|rijndael|twofish
 *     variant  norot|rot|opt|grp        (default rot)
 *     model    4w|4w+|8w+|df            (default 4w)
 *     bytes    session length           (default 4096)
 *     dir      enc|dec                  (default enc)
 *   isa_explorer --disassemble [cipher] [variant]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/common.hh"
#include "kernels/kernel.hh"
#include "sim/pipeline.hh"

namespace
{

using namespace cryptarch;

crypto::CipherId
parseCipher(const std::string &name)
{
    for (const auto &info : crypto::cipherCatalog()) {
        std::string lower = info.name;
        for (auto &c : lower)
            c = static_cast<char>(std::tolower(c));
        if (lower == name)
            return info.id;
    }
    std::fprintf(stderr, "unknown cipher '%s'\n", name.c_str());
    std::exit(1);
}

kernels::KernelVariant
parseVariant(const std::string &v)
{
    if (v == "norot")
        return kernels::KernelVariant::BaselineNoRot;
    if (v == "rot")
        return kernels::KernelVariant::BaselineRot;
    if (v == "opt")
        return kernels::KernelVariant::Optimized;
    if (v == "grp")
        return kernels::KernelVariant::OptimizedGrp;
    std::fprintf(stderr, "unknown variant '%s'\n", v.c_str());
    std::exit(1);
}

sim::MachineConfig
parseModel(const std::string &m)
{
    if (m == "4w")
        return sim::MachineConfig::fourWide();
    if (m == "4w+")
        return sim::MachineConfig::fourWidePlus();
    if (m == "8w+")
        return sim::MachineConfig::eightWidePlus();
    if (m == "df")
        return sim::MachineConfig::dataflow();
    std::fprintf(stderr, "unknown model '%s'\n", m.c_str());
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string cipher_name = "twofish";
    std::string variant_name = "rot";
    std::string model_name = "4w";
    size_t bytes = 4096;

    int arg = 1;
    bool disasm = false;
    if (arg < argc && std::strcmp(argv[arg], "--disassemble") == 0) {
        disasm = true;
        arg++;
    }
    if (arg < argc)
        cipher_name = argv[arg++];
    if (arg < argc)
        variant_name = argv[arg++];
    if (arg < argc)
        model_name = argv[arg++];
    if (arg < argc)
        bytes = std::strtoull(argv[arg++], nullptr, 0);
    kernels::KernelDirection direction = kernels::KernelDirection::Encrypt;
    if (arg < argc && std::strcmp(argv[arg], "dec") == 0)
        direction = kernels::KernelDirection::Decrypt;

    auto id = parseCipher(cipher_name);
    auto variant = parseVariant(variant_name);
    const auto &info = crypto::cipherInfo(id);
    if (!info.isStream)
        bytes = bytes / info.blockBytes * info.blockBytes;

    auto w = bench::makeWorkload(id, bytes);
    auto build = kernels::buildKernel(id, variant, w.key, w.iv, bytes,
                                      direction);

    if (disasm) {
        std::printf("%s (%zu static instructions)\n\n%s",
                    build.name.c_str(), build.program.size(),
                    build.program.disassemble().c_str());
        return 0;
    }

    auto cfg = parseModel(model_name);
    isa::Machine m;
    build.install(m, kernels::toWordImage(id, w.plaintext));
    sim::OooScheduler sched(cfg);
    m.run(build.program, &sched, 1ull << 32);
    auto s = sched.finish();

    std::printf("kernel   : %s\n", build.name.c_str());
    std::printf("model    : %s\n", s.model.c_str());
    std::printf("session  : %zu bytes\n", bytes);
    std::printf("insts    : %llu (%.1f per byte)\n",
                static_cast<unsigned long long>(s.instructions),
                static_cast<double>(s.instructions) / bytes);
    std::printf("cycles   : %llu\n",
                static_cast<unsigned long long>(s.cycles));
    std::printf("IPC      : %.2f\n", s.ipc());
    std::printf("rate     : %.2f bytes/1000 cycles "
                "(= MB/s at 1 GHz)\n",
                bench::bytesPerKiloCycle(s.cycles, bytes));
    std::printf("branches : %llu cond, %llu mispredicted (%.2f%%)\n",
                static_cast<unsigned long long>(s.condBranches),
                static_cast<unsigned long long>(s.mispredicts),
                s.condBranches ? 100.0 * s.mispredicts / s.condBranches
                               : 0.0);
    std::printf("L1D      : %llu accesses, %.2f%% miss\n",
                static_cast<unsigned long long>(s.l1.accesses),
                s.l1.accesses ? 100.0 * s.l1.misses / s.l1.accesses : 0.0);
    std::printf("SBOX     : %llu accesses",
                static_cast<unsigned long long>(s.sboxAccesses));
    if (s.sboxAccesses) {
        std::printf(", %llu SBox-cache hits",
                    static_cast<unsigned long long>(s.sboxCacheHits));
    }
    std::printf("\n");
    return 0;
}
