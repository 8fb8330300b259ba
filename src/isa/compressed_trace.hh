/**
 * @file
 * Loop-aware compressed encoding of a dynamic instruction stream.
 *
 * The paper's kernels spend nearly all dynamic instructions
 * re-executing one steady-state block-loop body: the same static
 * instructions, in the same order, differing per iteration only in
 * effective addresses (data pointers advance by the block size, SBOX
 * lookups wander data-dependently), branch outcomes (the loop-close
 * branch falls through once), and written values. PackedTrace stores
 * every one of those dynamic instructions at 14 B each; CompressedTrace
 * stores the loop ONCE and the per-iteration differences as small delta
 * tables, then re-expands the exact DynInst stream on demand:
 *
 *   prefix   PackedTrace   everything before the steady state (setup
 *                          plus the first loop iteration — "warmup")
 *   body     Slot[L]       one representative iteration: per-slot
 *                          static skeleton + how each varying field is
 *                          reconstructed (see below)
 *   deltas   side tables   per-iteration values for the fields the
 *                          skeleton cannot predict
 *   suffix   PackedTrace   everything after the last steady iteration
 *                          ("cooldown": usually just the Halt)
 *
 * Per-slot reconstruction modes:
 *
 *   addr    none     the slot never carries an address
 *           affine   addr(t) = base + stride * t (wrapping u64 math);
 *                    covers data/key/IV traffic whose pointers move by
 *                    a constant per block (stride 0 = constant)
 *           explicit one u32 table entry per iteration; the compressor
 *                    allows this only for SBOX reads (op Sbox/Sboxx),
 *                    whose data-dependent lookups are the paper's whole
 *                    subject — a data-dependent ORDINARY load or store
 *                    stream (RC4's table swap) refuses compression
 *   taken   always / never / varying (one bit per iteration)
 *           nextPc(t) = taken(t) ? target : pc + 1
 *   result  zero / constant / explicit (one u64 per iteration)
 *
 * Expansion (expandInto) yields DynInst values identical to the
 * PackedTrace the stream was compressed from — the driver cross-checks
 * exactly that, through the same expansion path replay uses, before
 * dropping the packed copy — so the OoO scheduler replays stitched
 * traces entirely unchanged. The steady-state decode is a template
 * copy plus a handful of patches, so replay also streams an order of
 * magnitude fewer bytes than the packed encoding — trace memory
 * becomes near-constant in the message length. Like PackedTrace, the
 * encoding lives only in process memory.
 */

#ifndef CRYPTARCH_ISA_COMPRESSED_TRACE_HH
#define CRYPTARCH_ISA_COMPRESSED_TRACE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/packed_trace.hh"

namespace cryptarch::isa
{

/**
 * Why a stream did (or did not) compress. The refusal paths are part
 * of the contract: a refused stream is replayed from its PackedTrace
 * with no output change, and tests pin which kernels refuse and why.
 */
enum class CompressOutcome : uint8_t
{
    Accepted,       ///< steady loop found, deltas built
    NoLoop,         ///< no backward branch repeats often enough
    IrregularBody,  ///< iteration shape unstable (length, skeleton,
                    ///< branch targets, or unencodable addresses)
    LooseAddresses, ///< a non-SBOX memory op has a data-dependent
                    ///< (non-affine) address stream, e.g. RC4's swap
    NoGain,         ///< structurally compressible but not smaller
                    ///< (set by the storage policy layer, not here)
    ExpandMismatch, ///< paranoia cross-check against the packed stream
                    ///< failed (set by the storage policy layer)
    NotAttempted,   ///< compression disabled for this recording
};

/** Stable short name ("accepted", "no-loop", ...). */
const char *compressOutcomeName(CompressOutcome outcome);

class CompressedTrace
{
  public:
    /** Steady iterations required before compressing at all. */
    static constexpr uint64_t min_iterations = 8;
    /** Backward-branch candidates tried, most-frequent first. */
    static constexpr unsigned max_candidates = 4;

    /**
     * Detect the steady-state loop of @p packed and build @p out from
     * it. Returns Accepted on success; on any refusal @p out is left
     * empty and the reason names the first obstacle met by the
     * most-frequent backward-branch candidate. Never throws on refusal
     * — refusing is the supported fallback path.
     */
    static CompressOutcome compress(const PackedTrace &packed,
                                    CompressedTrace &out);

    /** Dynamic instructions the expanded stream yields. */
    uint64_t instructions() const
    {
        return prefix_.size() + iterations_ * body_.size()
            + suffix_.size();
    }

    bool empty() const { return body_.empty(); }

    /** Steady-state iterations stored as deltas. */
    uint64_t iterations() const { return iterations_; }
    /** Dynamic instructions per steady iteration. */
    size_t bodyLength() const { return body_.size(); }

    /**
     * Bytes held across the skeleton, delta tables and stitches, with
     * each slot counted at its packed footprint (slot_bytes) rather
     * than the wider padded struct.
     */
    size_t storedBytes() const;

    /** How one steady-state slot is reconstructed (see file comment). */
    struct Slot
    {
        uint32_t pc = 0;
        uint8_t op = 0;
        uint8_t cls = 0;
        uint8_t dest = 0;
        uint8_t addrSrc = 0;
        uint8_t tableId = 0;
        std::array<uint8_t, 3> srcs{};
        uint8_t numSrcs = 0;
        uint8_t size = 0;
        bool isLoad = false;
        bool isStore = false;
        bool branch = false;
        bool aliased = false;

        uint8_t addrMode = addr_none;
        uint8_t takenMode = taken_none;
        uint8_t resultMode = result_zero;

        uint64_t addrBase = 0;
        uint64_t addrStride = 0; ///< two's-complement, wrapping
        uint32_t takenTarget = 0;
        uint64_t resultConst = 0;

        /** Rank among slots sharing the mode (delta-table index). */
        uint32_t addrTable = 0;
        uint32_t takenTable = 0;
        uint32_t resultTable = 0;
    };

    // addr reconstruction modes
    static constexpr uint8_t addr_none = 0;
    static constexpr uint8_t addr_affine = 1;
    static constexpr uint8_t addr_explicit = 2;
    // taken reconstruction modes
    static constexpr uint8_t taken_none = 0;
    static constexpr uint8_t taken_always = 1;
    static constexpr uint8_t taken_never = 2;
    static constexpr uint8_t taken_varying = 3;
    // result reconstruction modes
    static constexpr uint8_t result_zero = 0;
    static constexpr uint8_t result_constant = 1;
    static constexpr uint8_t result_explicit = 2;

    /**
     * Footprint of one Slot with its fields packed back to back: pc
     * and takenTarget (4 B each), addrBase/addrStride/resultConst
     * (8 B each), ten u8 fields, the four flags in one byte and the
     * three mode bytes. storedBytes() counts slots at this size.
     */
    static constexpr size_t slot_bytes = 46;

    /**
     * Expand the whole stream into @p sink: the prefix, then
     * iterations() copies of the patched body, then the suffix, with
     * globally renumbered seq — exactly the stream the packed source
     * decoded to. Steady-state instructions are emitted straight from
     * the patched body template (a seq store plus a handful of
     * per-iteration patches each), which is what makes compressed
     * replay faster than decoding the packed columns. @p Sink is a
     * template parameter so a concrete scheduler's emit devirtualizes.
     */
    template <typename Sink>
    void
    expandInto(Sink &sink) const
    {
        for (auto r = prefix_.reader(); !r.done();)
            sink.emit(r.next());
        uint64_t seq = prefix_.size();
        std::vector<DynInst> body;
        std::vector<uint32_t> patchSlots;
        buildBodyTemplate(body, patchSlots);
        for (uint64_t t = 0; t < iterations_; t++) {
            patchBody(body, patchSlots, t);
            for (DynInst &d : body) {
                d.seq = seq++;
                sink.emit(d);
            }
        }
        for (auto r = suffix_.reader(); !r.done();) {
            DynInst d = r.next();
            d.seq = seq++;
            sink.emit(d);
        }
    }

  private:
    /** Materialize the body skeleton and the list of varying slots. */
    void buildBodyTemplate(std::vector<DynInst> &body,
                           std::vector<uint32_t> &patchSlots) const;

    /** Re-patch @p body's varying slots for steady iteration @p t. */
    void patchBody(std::vector<DynInst> &body,
                   const std::vector<uint32_t> &patchSlots,
                   uint64_t t) const;

    PackedTrace prefix_;
    PackedTrace suffix_;
    std::vector<Slot> body_;
    uint64_t iterations_ = 0;

    /** Per explicit-addr slot, iterations() addresses, slot-major. */
    std::vector<uint32_t> explicitAddr_;
    /** Per varying-branch slot, one bit per iteration, slot-major. */
    std::vector<uint8_t> takenBits_;
    /** Per explicit-result slot, iterations() values, slot-major. */
    std::vector<uint64_t> explicitResult_;
};

} // namespace cryptarch::isa

#endif // CRYPTARCH_ISA_COMPRESSED_TRACE_HH
