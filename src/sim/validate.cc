#include "sim/validate.hh"

#include <atomic>

namespace cryptarch::sim
{

namespace
{

// Size caps: a config past these is not "a big machine", it is an
// allocation bomb (the cache line array, predictor table and window
// ring are sized directly from them). Far above every real design
// point — the paper's largest structure is the 512 KB L2.
constexpr uint64_t max_cache_lines = 1u << 22;     // 4M lines
constexpr unsigned max_predictor_entries = 1u << 26;
constexpr unsigned max_tlb_entries = 1u << 22;
constexpr unsigned max_page_bytes = 1u << 30;
constexpr unsigned max_window_size = 1u << 24;
// The resource ring amortizes pruning over its entry count, so sweep
// cost per instruction is proportional to the largest in-flight
// latency gap: a 2^20-cycle latency turns a 512-byte kernel into
// ~10^11 bookkeeping operations. 2^12 keeps the worst admissible
// machine around a second per cell while sitting 34x above the
// paper's largest real latency (memLat = 120).
constexpr unsigned max_latency = 1u << 12;
constexpr unsigned max_width = 1u << 16;

/** A cycle count past max_latency; 0 is admissible. */
std::optional<ConfigError>
checkCycles(const char *field, unsigned cycles)
{
    if (cycles > max_latency)
        return ConfigError{ConfigErrorKind::Oversized, field,
                           std::to_string(cycles) + " cycles exceeds the "
                               + std::to_string(max_latency)
                               + "-cycle cap"};
    return std::nullopt;
}

std::optional<ConfigError>
checkLatency(const char *field, unsigned lat)
{
    if (lat == 0)
        return ConfigError{ConfigErrorKind::InconsistentLatency, field,
                           "a 0-cycle operation latency cannot describe "
                           "a real unit"};
    return checkCycles(field, lat);
}

std::optional<ConfigError>
checkWidth(const char *field, unsigned width)
{
    // 0 = unlimited is always admissible.
    if (width > max_width)
        return ConfigError{ConfigErrorKind::Oversized, field,
                           std::to_string(width) + " exceeds the "
                               + std::to_string(max_width) + " cap"};
    return std::nullopt;
}

// Hardening policies, set only through the setters (benches pass
// --audit); forked sweep workers inherit both by memory copy.
std::atomic<bool> audit_enabled{false};
std::atomic<uint64_t> progress_budget{0}; // 0 = auto-scaled

} // namespace

std::optional<ConfigError>
checkGeometry(const char *name, const CacheGeometry &g)
{
    const std::string f(name);
    if (g.blockBytes == 0)
        return ConfigError{ConfigErrorKind::ZeroGeometry,
                           f + ".blockBytes",
                           "block size must be nonzero"};
    if (g.assoc == 0)
        return ConfigError{ConfigErrorKind::ZeroGeometry, f + ".assoc",
                           "associativity must be nonzero"};
    if (g.sizeBytes == 0)
        return ConfigError{ConfigErrorKind::ZeroGeometry, f + ".sizeBytes",
                           "capacity must be nonzero"};
    const uint64_t setBytes =
        static_cast<uint64_t>(g.blockBytes) * g.assoc;
    if (g.sizeBytes < setBytes)
        return ConfigError{ConfigErrorKind::BadGeometry, f + ".sizeBytes",
                           "capacity " + std::to_string(g.sizeBytes)
                               + " smaller than one set ("
                               + std::to_string(setBytes) + " bytes)"};
    if (g.sizeBytes % setBytes != 0)
        return ConfigError{ConfigErrorKind::BadGeometry, f + ".sizeBytes",
                           "capacity " + std::to_string(g.sizeBytes)
                               + " not a multiple of blockBytes*assoc ("
                               + std::to_string(setBytes) + ")"};
    if (g.sizeBytes / g.blockBytes > max_cache_lines)
        return ConfigError{ConfigErrorKind::Oversized, f + ".sizeBytes",
                           std::to_string(g.sizeBytes / g.blockBytes)
                               + " lines exceeds the "
                               + std::to_string(max_cache_lines)
                               + "-line cap"};
    return std::nullopt;
}

const char *
configErrorKindName(ConfigErrorKind kind)
{
    switch (kind) {
      case ConfigErrorKind::ZeroGeometry: return "zero-geometry";
      case ConfigErrorKind::BadGeometry: return "bad-geometry";
      case ConfigErrorKind::InconsistentLatency:
        return "inconsistent-latency";
      case ConfigErrorKind::Oversized: return "oversized";
    }
    return "?";
}

std::string
ConfigError::message() const
{
    return "config error [" + std::string(configErrorKindName(kind)) + "] "
        + field + ": " + detail;
}

std::optional<ConfigError>
validateConfig(const MachineConfig &cfg)
{
    // --- Frontend ---
    if (auto e = checkWidth("fetchBlocksPerCycle", cfg.fetchBlocksPerCycle))
        return e;
    if (auto e = checkWidth("fetchWidth", cfg.fetchWidth))
        return e;
    if (auto e = checkCycles("mispredictPenalty", cfg.mispredictPenalty))
        return e;
    if (cfg.predictorEntries == 0)
        return ConfigError{ConfigErrorKind::ZeroGeometry,
                           "predictorEntries",
                           "the predictor table must have entries"};
    if (cfg.predictorEntries > max_predictor_entries)
        return ConfigError{ConfigErrorKind::Oversized, "predictorEntries",
                           std::to_string(cfg.predictorEntries)
                               + " exceeds the "
                               + std::to_string(max_predictor_entries)
                               + "-entry cap"};

    // --- Window / issue ---
    if (cfg.windowSize > max_window_size)
        return ConfigError{ConfigErrorKind::Oversized, "windowSize",
                           std::to_string(cfg.windowSize)
                               + " exceeds the "
                               + std::to_string(max_window_size)
                               + "-entry cap"};
    if (auto e = checkWidth("issueWidth", cfg.issueWidth))
        return e;
    if (auto e = checkCycles("frontendDepth", cfg.frontendDepth))
        return e;

    // --- Functional units ---
    if (auto e = checkWidth("numIntAlu", cfg.numIntAlu))
        return e;
    if (auto e = checkWidth("numRotUnits", cfg.numRotUnits))
        return e;
    if (auto e = checkWidth("mulHalfSlots", cfg.mulHalfSlots))
        return e;
    if (auto e = checkWidth("numDCachePorts", cfg.numDCachePorts))
        return e;
    if (auto e = checkWidth("numSboxCaches", cfg.numSboxCaches))
        return e;
    if (auto e = checkWidth("sboxCachePorts", cfg.sboxCachePorts))
        return e;
    // mulHalfSlots == 1 is admissible: only a 64-bit MULQ (2
    // half-slots) can never issue on it, and the optimized kernels
    // issue none. A program that does stalls, and the scheduler's
    // forward-progress watchdog turns that into a typed trap.

    // --- Latencies ---
    if (auto e = checkLatency("aluLat", cfg.aluLat))
        return e;
    if (auto e = checkLatency("rotLat", cfg.rotLat))
        return e;
    if (auto e = checkLatency("mulLat64", cfg.mulLat64))
        return e;
    if (auto e = checkLatency("mulLat32", cfg.mulLat32))
        return e;
    if (auto e = checkLatency("mulmodLat", cfg.mulmodLat))
        return e;
    if (auto e = checkLatency("loadLat", cfg.loadLat))
        return e;
    if (auto e = checkLatency("sboxOnDcacheLat", cfg.sboxOnDcacheLat))
        return e;
    if (auto e = checkLatency("sboxCacheLat", cfg.sboxCacheLat))
        return e;
    if (cfg.mulLat32 > cfg.mulLat64)
        return ConfigError{ConfigErrorKind::InconsistentLatency,
                           "mulLat32",
                           "32-bit multiply ("
                               + std::to_string(cfg.mulLat32)
                               + " cycles) slower than 64-bit ("
                               + std::to_string(cfg.mulLat64) + ")"};

    // --- Memory system ---
    if (auto e = checkGeometry("l1d", cfg.l1d))
        return e;
    if (auto e = checkGeometry("l2", cfg.l2))
        return e;
    if (auto e = checkCycles("l2HitLat", cfg.l2HitLat))
        return e;
    if (auto e = checkCycles("memLat", cfg.memLat))
        return e;
    if (cfg.l2HitLat > cfg.memLat)
        return ConfigError{ConfigErrorKind::InconsistentLatency,
                           "l2HitLat",
                           "L2 hit (" + std::to_string(cfg.l2HitLat)
                               + " cycles) slower than memory ("
                               + std::to_string(cfg.memLat) + ")"};
    if (cfg.pageBytes == 0)
        return ConfigError{ConfigErrorKind::ZeroGeometry, "pageBytes",
                           "page size must be nonzero"};
    if (cfg.pageBytes > max_page_bytes)
        return ConfigError{ConfigErrorKind::Oversized, "pageBytes",
                           std::to_string(cfg.pageBytes)
                               + " exceeds the "
                               + std::to_string(max_page_bytes)
                               + "-byte cap"};
    if (cfg.dtlbEntries == 0)
        return ConfigError{ConfigErrorKind::ZeroGeometry, "dtlbEntries",
                           "the DTLB must have entries"};
    if (cfg.dtlbEntries > max_tlb_entries)
        return ConfigError{ConfigErrorKind::Oversized, "dtlbEntries",
                           std::to_string(cfg.dtlbEntries)
                               + " exceeds the "
                               + std::to_string(max_tlb_entries)
                               + "-entry cap"};
    if (cfg.dtlbAssoc == 0)
        return ConfigError{ConfigErrorKind::ZeroGeometry, "dtlbAssoc",
                           "associativity must be nonzero"};
    if (cfg.dtlbEntries < cfg.dtlbAssoc)
        return ConfigError{ConfigErrorKind::BadGeometry, "dtlbEntries",
                           std::to_string(cfg.dtlbEntries)
                               + " entries fewer than the associativity ("
                               + std::to_string(cfg.dtlbAssoc) + ")"};
    if (cfg.dtlbEntries % cfg.dtlbAssoc != 0)
        return ConfigError{ConfigErrorKind::BadGeometry, "dtlbEntries",
                           std::to_string(cfg.dtlbEntries)
                               + " entries not a multiple of the "
                                 "associativity ("
                               + std::to_string(cfg.dtlbAssoc) + ")"};
    // The TLB backs onto a Cache sized entries*pageBytes in a 32-bit
    // field; past this cap the product overflows and the geometry
    // silently wraps.
    if (static_cast<uint64_t>(cfg.dtlbEntries) * cfg.pageBytes
        > (1u << 31))
        return ConfigError{ConfigErrorKind::Oversized, "dtlbEntries",
                           "entries * pageBytes exceeds the 2 GiB "
                           "backing-geometry cap"};
    if (auto e = checkCycles("dtlbMissLat", cfg.dtlbMissLat))
        return e;
    return std::nullopt;
}

ConfigRejected::ConfigRejected(ConfigError err)
    : std::invalid_argument(err.message()), err_(std::move(err))
{
}

AuditError::AuditError(const std::string &invariant, uint64_t seq,
                       uint32_t pc, const std::string &detail)
    : std::logic_error("audit violation [" + invariant + "] at seq="
                       + std::to_string(seq) + " pc="
                       + std::to_string(pc) + ": " + detail),
      invariant_(invariant), seq_(seq), pc_(pc)
{
}

MachineConfig
hardenedConfig(const MachineConfig &cfg)
{
    if (auto err = validateConfig(cfg))
        throw ConfigRejected(std::move(*err));
    return cfg;
}

bool
simAuditEnabled()
{
    return audit_enabled.load(std::memory_order_relaxed);
}

void
setSimAudit(bool enabled)
{
    audit_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t
progressBudgetOverride()
{
    return progress_budget.load(std::memory_order_relaxed);
}

void
setProgressBudgetOverride(uint64_t budget)
{
    progress_budget.store(budget, std::memory_order_relaxed);
}

} // namespace cryptarch::sim
