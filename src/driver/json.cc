#include "driver/json.hh"

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace cryptarch::driver
{

namespace
{

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            // Escape through unsigned char: a plain (signed) char
            // sign-extends through the %x varargs promotion, turning
            // 0x80 into "￿ff80". High-bit bytes are escaped too —
            // the emitter's strings are ASCII identifiers, so a stray
            // non-ASCII byte must surface as a visible \u00xx escape
            // rather than corrupt the file's UTF-8.
            if (const auto u = static_cast<unsigned char>(c);
                u < 0x20 || u >= 0x7f) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
cacheJson(std::ostringstream &os, const char *name,
          const sim::CacheStats &c)
{
    os << "\"" << name << "\": {\"accesses\": " << c.accesses
       << ", \"misses\": " << c.misses << "}";
}

void
stallJson(std::ostringstream &os, const sim::StallVector &v)
{
    os << "{";
    for (size_t c = 0; c < sim::num_stall_causes; c++)
        os << (c ? ", " : "") << "\""
           << sim::stall_cause_names[c] << "\": " << v[c];
    os << "}";
}

} // namespace

std::string
toJson(const sim::SimStats &stats)
{
    // Per-class keys come from the one OpClass-name table; a new
    // OpClass extends both the array and the table or fails to build.
    static_assert(std::tuple_size_v<decltype(stats.classCounts)>
                      == isa::num_op_classes,
                  "classCounts must cover every OpClass");

    std::ostringstream os;
    os << "{\"instructions\": " << stats.instructions
       << ", \"cycles\": " << stats.cycles << ", \"ipc\": " << stats.ipc()
       << ", \"cond_branches\": " << stats.condBranches
       << ", \"mispredicts\": " << stats.mispredicts
       << ", \"loads\": " << stats.loads << ", \"stores\": " << stats.stores
       << ", \"sbox_accesses\": " << stats.sboxAccesses
       << ", \"sbox_cache_hits\": " << stats.sboxCacheHits
       << ", \"sbox_cache_accesses\": " << stats.sboxCacheAccesses
       << ", \"sbox_cache_misses\": " << stats.sboxCacheMisses
       << ", \"sbox_caches\": [";
    for (size_t i = 0; i < stats.sboxCaches.size(); i++) {
        os << (i ? ", " : "") << "{\"accesses\": "
           << stats.sboxCaches[i].accesses << ", \"misses\": "
           << stats.sboxCaches[i].misses << "}";
    }
    os << "], \"class_counts\": {";
    for (size_t i = 0; i < stats.classCounts.size(); i++)
        os << (i ? ", " : "") << "\""
           << isa::opClassName(static_cast<isa::OpClass>(i))
           << "\": " << stats.classCounts[i];
    os << "}, \"stall_cycles\": ";
    stallJson(os, stats.stallCycles);
    // Per-class stall breakdowns, for classes that stalled at all.
    os << ", \"stall_by_class\": {";
    bool first = true;
    for (size_t i = 0; i < stats.stallByClass.size(); i++) {
        const auto &v = stats.stallByClass[i];
        uint64_t total = 0;
        for (uint64_t n : v)
            total += n;
        if (!total)
            continue;
        os << (first ? "" : ", ") << "\""
           << isa::opClassName(static_cast<isa::OpClass>(i)) << "\": ";
        stallJson(os, v);
        first = false;
    }
    os << "}, ";
    cacheJson(os, "l1", stats.l1);
    os << ", ";
    cacheJson(os, "l2", stats.l2);
    os << ", ";
    cacheJson(os, "tlb", stats.tlb);
    os << "}";
    return os.str();
}

void
writeBenchJson(const std::string &path, std::string_view bench,
               const std::vector<SweepResult> &results)
{
    writeBenchJson(path, bench, results, {});
}

void
writeBenchJson(const std::string &path, std::string_view bench,
               const std::vector<SweepResult> &results,
               const std::vector<std::string> &resultExtras)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);

    std::array<uint64_t, num_cell_outcomes> counts{};
    for (const auto &r : results)
        counts[static_cast<size_t>(r.outcome)]++;

    out << "{\n  \"bench\": \"" << escape(bench) << "\",\n"
        << "  \"schema\": 5,\n  \"outcomes\": {";
    for (size_t o = 0; o < num_cell_outcomes; o++)
        out << (o ? ", " : "") << "\""
            << cellOutcomeName(static_cast<CellOutcome>(o))
            << "\": " << counts[o];
    out << "},\n  \"results\": [\n";
    for (size_t i = 0; i < results.size(); i++) {
        const auto &r = results[i];
        out << "    {\"cipher\": \""
            << escape(crypto::cipherInfo(r.cipher).name) << "\", \"variant\": \""
            << escape(kernels::variantName(r.variant)) << "\", \"model\": \""
            << escape(r.model) << "\", \"session_bytes\": " << r.bytes;
        if (r.direction == kernels::KernelDirection::Decrypt)
            out << ", \"direction\": \"decrypt\"";
        out << ", \"outcome\": \"" << cellOutcomeName(r.outcome) << "\"";
        if (!r.message.empty())
            out << ",\n     \"message\": \"" << escape(r.message) << "\"";
        if (r.worker >= 0)
            out << ",\n     \"worker\": " << r.worker;
        if (i < resultExtras.size() && !resultExtras[i].empty())
            out << ",\n     " << resultExtras[i];
        out << ",\n     \"stats\": " << toJson(r.stats) << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    if (!out.flush())
        throw std::runtime_error("failed writing " + path);
}

} // namespace cryptarch::driver
