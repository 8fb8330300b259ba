/**
 * @file
 * Structure-of-arrays compact encoding of a dynamic instruction stream.
 *
 * A trace replayed across a model grid is read once per timing model,
 * so replay throughput is bounded by how many bytes per instruction
 * stream through the cache hierarchy. A full DynInst is 56 bytes;
 * PackedTrace stores the same information in 14 fixed bytes per
 * instruction plus small side tables, and decodes back to DynInst on
 * the fly during replay:
 *
 *   fixed record (14 B/inst, interleaved)
 *     pc        u32   static instruction index
 *     op, cls   u8+u8
 *     dest      u8
 *     addrSrc   u8
 *     tableId   u8
 *     srcs      3xu8  source registers (always three slots)
 *     flags     u16   see flag bits below
 *
 *   The fixed fields are interleaved as one 14-byte record per
 *   instruction (offsets above, little-endian) rather than stored as
 *   separate columns: recording appends one contiguous record per
 *   instruction and replay decodes one, so both directions touch a
 *   single sequential stream instead of eight.
 *
 *   side tables (entries only where the common case fails)
 *     addr32    u32   effective address, when != 0 and < 2^32
 *     addrWide  u64   escape for addresses >= 2^32
 *     nextPcExc u32   successor pc, when != pc + 1 (taken branches,
 *                     the final Halt)
 *     result    u64   written value, when kept and != 0
 *
 * flags bits: 0-1 numSrcs, 2 isLoad, 3 isStore, 4 branch, 5 taken,
 * 6 aliased, 7 hasAddr, 8 nextPc exception, 9 hasResult,
 * 10-12 size code (decode table {0,1,2,4,8}), 13 wide address.
 *
 * Sequence numbers are implicit: appended instructions must arrive
 * with seq equal to their index (the functional Machine emits them
 * that way), and decode reconstructs seq from the cursor position.
 * Side-table membership is order-dependent, so decoding is sequential
 * through a Reader cursor — exactly the access pattern replay has.
 *
 * The encoding lives only in process memory (every trace is replayed
 * by the process that recorded it). append(), appendRow() and
 * Stage::flush() are the only writers, and each keeps the flag words
 * and side tables consistent by construction; Reader::next() asserts
 * that it never decodes past the end of a side table.
 */

#ifndef CRYPTARCH_ISA_PACKED_TRACE_HH
#define CRYPTARCH_ISA_PACKED_TRACE_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "isa/machine.hh"

namespace cryptarch::isa
{

class PackedTrace
{
  public:
    /** Bytes of one interleaved fixed record (the 14 in "14 B/inst"). */
    static constexpr size_t row_bytes = 14;

    /**
     * Append @p inst to the stream. @p inst.seq must equal size().
     * With @p keepResult false the result value is dropped (decodes
     * as 0) — timing models never read it, and results are the one
     * field that would otherwise dominate the encoding.
     */
    void append(const DynInst &inst, bool keepResult = true);

    // Flag-word bit layout (see file comment). Public because the
    // fast-path row producer below patches dynamic bits per
    // retirement, and because the format tests assert against it.
    static constexpr uint16_t num_srcs_mask = 0x0003;
    static constexpr uint16_t f_load = 1u << 2;
    static constexpr uint16_t f_store = 1u << 3;
    static constexpr uint16_t f_branch = 1u << 4;
    static constexpr uint16_t f_taken = 1u << 5;
    static constexpr uint16_t f_aliased = 1u << 6;
    static constexpr uint16_t f_has_addr = 1u << 7;
    static constexpr uint16_t f_next_pc_exc = 1u << 8;
    static constexpr uint16_t f_has_result = 1u << 9;
    static constexpr unsigned size_code_shift = 10;
    static constexpr uint16_t size_code_mask = 0x7;
    static constexpr uint16_t f_wide_addr = 1u << 13;

    /**
     * Pack @p inst's static fields into @p row and return its base
     * flag word: everything append() would compute for an instruction
     * whose addr and result are zero (taken and the next-pc exception
     * come from @p inst itself, so branch templates carry the right
     * static bits). A fast-path producer packs one row per static
     * instruction at decode time, then per retirement ORs in whichever
     * of f_taken / f_has_addr / f_wide_addr / f_next_pc_exc /
     * f_has_result apply and calls appendRow().
     */
    static uint16_t packRowBase(const DynInst &inst,
                                uint8_t (&row)[row_bytes]);

    /**
     * Fast-path append for producers that pre-pack fixed records at
     * decode time (the threaded execution backend). @p row is the
     * 14-byte record from packRowBase(); its flag bytes are replaced
     * by @p flags, the FINAL flag word for this retirement. Side-table
     * entries are appended for exactly the side-table flags set in
     * @p flags, taking the values from @p addr, @p nextPc, and
     * @p result. The caller must follow append()'s canonicalization
     * rules (has-addr iff addr != 0, wide iff addr >= 2^32, next-pc
     * exception iff nextPc != pc + 1, result kept iff nonzero and
     * wanted) so the encoding — not just the decode — is identical to
     * an append() of the equivalent DynInst. The backend parity tests
     * compare whole traces with operator== to prove it. Sequence
     * numbers stay implicit: the row lands at index size().
     */
    void appendRow(const uint8_t (&row)[row_bytes], uint16_t flags,
                   uint64_t addr, uint32_t nextPc, uint64_t result);

    /**
     * Retirement staging buffer for the row fast path. A per-row
     * vector::push_back costs several times the 14-byte copy itself
     * (capacity check, end-pointer update, aliasing reloads), so the
     * threaded backend accumulates retirements into this L1-resident
     * buffer with add() — same arguments and canonicalization contract
     * as appendRow() — and lands them in cap-sized batches with
     * flush(), which bulk-inserts each column. A Stage is bound to the
     * single trace it flushes into; rows appear in the trace only
     * after a flush, so the producer must flush before the trace is
     * read (the backend flushes on every exit path, traps included).
     */
    class Stage
    {
      public:
        /** Rows buffered between flushes. */
        static constexpr uint32_t cap = 256;

        /** Stage one retirement; see appendRow() for the contract. */
        void add(const uint8_t (&row)[row_bytes], uint16_t flags,
                 uint64_t addr, uint32_t nextPc, uint64_t result);

        bool full() const { return nRows == cap; }
        bool empty() const { return nRows == 0; }

        /** Append everything staged to @p t and reset to empty. */
        void flush(PackedTrace &t);

      private:
        std::array<uint8_t, row_bytes> rows[cap];
        uint32_t addr32[cap];
        uint64_t addrWide[cap];
        uint32_t nextPcExc[cap];
        uint64_t result[cap];
        uint32_t nRows = 0;
        uint32_t nAddr32 = 0;
        uint32_t nWide = 0;
        uint32_t nNextPc = 0;
        uint32_t nResult = 0;
    };

    /** Pre-size the fixed records for @p n instructions. */
    void reserve(size_t n);

    size_t size() const { return fixed_.size(); }
    bool empty() const { return fixed_.empty(); }

    /** Total bytes held across fixed columns and side tables. */
    size_t packedBytes() const;

    void clear();

    /** Encoding identity: same fixed records and side tables. */
    bool operator==(const PackedTrace &) const = default;

    /**
     * Sequential decode cursor. Readers are cheap to construct and
     * independent, so a trace can be replayed concurrently.
     */
    class Reader
    {
      public:
        explicit Reader(const PackedTrace &t) : trace(&t) {}

        bool done() const { return index >= trace->size(); }

        /** Decode the next instruction; valid only when !done().
         *  Defined inline below: the decode runs once per replayed
         *  instruction and wants to fold into the replay loop rather
         *  than pay a cross-TU call returning a 56-byte DynInst. */
        DynInst next();

      private:
        const PackedTrace *trace;
        size_t index = 0;
        size_t addr32Pos = 0;
        size_t addrWidePos = 0;
        size_t nextPcPos = 0;
        size_t resultPos = 0;
    };

    Reader reader() const { return Reader(*this); }

  private:
    /** Access sizes the ISA produces, indexed by size code. */
    static constexpr uint8_t size_table[5] = {0, 1, 2, 4, 8};

    static uint16_t sizeCode(uint8_t size);

    /** Record field offsets within a 14-byte fixed record. */
    static constexpr size_t off_pc = 0;
    static constexpr size_t off_op = 4;
    static constexpr size_t off_cls = 5;
    static constexpr size_t off_dest = 6;
    static constexpr size_t off_addr_src = 7;
    static constexpr size_t off_table_id = 8;
    static constexpr size_t off_srcs = 9;
    static constexpr size_t off_flags = 12;

    static uint32_t
    rowPc(const uint8_t *row)
    {
        return static_cast<uint32_t>(row[off_pc])
            | static_cast<uint32_t>(row[off_pc + 1]) << 8
            | static_cast<uint32_t>(row[off_pc + 2]) << 16
            | static_cast<uint32_t>(row[off_pc + 3]) << 24;
    }

    static uint16_t
    rowFlags(const uint8_t *row)
    {
        return static_cast<uint16_t>(
            row[off_flags] | row[off_flags + 1] << 8);
    }

    /**
     * One row_bytes-sized record per instruction. std::array keeps the
     * element trivially copyable with size == alignment == 1 packing,
     * so push_back is one capacity check plus a 14-byte copy — this is
     * the recording hot path.
     */
    std::vector<std::array<uint8_t, row_bytes>> fixed_;

    std::vector<uint32_t> addr32_;
    std::vector<uint64_t> addrWide_;
    std::vector<uint32_t> nextPcExc_;
    std::vector<uint64_t> result_;
};

inline void
PackedTrace::appendRow(const uint8_t (&row)[row_bytes], uint16_t flags,
                       uint64_t addr, uint32_t nextPc, uint64_t result)
{
    std::array<uint8_t, row_bytes> rec;
    std::memcpy(rec.data(), row, row_bytes);
    rec[off_flags] = static_cast<uint8_t>(flags);
    rec[off_flags + 1] = static_cast<uint8_t>(flags >> 8);
    fixed_.push_back(rec);
    if (flags & f_has_addr) {
        if (flags & f_wide_addr)
            addrWide_.push_back(addr);
        else
            addr32_.push_back(static_cast<uint32_t>(addr));
    }
    if (flags & f_next_pc_exc)
        nextPcExc_.push_back(nextPc);
    if (flags & f_has_result)
        result_.push_back(result);
}

inline void
PackedTrace::Stage::add(const uint8_t (&row)[row_bytes], uint16_t flags,
                        uint64_t addr, uint32_t nextPc, uint64_t result)
{
    assert(nRows < cap);
    std::array<uint8_t, row_bytes> &rec = rows[nRows++];
    std::memcpy(rec.data(), row, row_bytes);
    rec[off_flags] = static_cast<uint8_t>(flags);
    rec[off_flags + 1] = static_cast<uint8_t>(flags >> 8);
    if (flags & f_has_addr) {
        if (flags & f_wide_addr)
            addrWide[nWide++] = addr;
        else
            addr32[nAddr32++] = static_cast<uint32_t>(addr);
    }
    if (flags & f_next_pc_exc)
        nextPcExc[nNextPc++] = nextPc;
    if (flags & f_has_result)
        this->result[nResult++] = result;
}

inline DynInst
PackedTrace::Reader::next()
{
    const PackedTrace &t = *trace;
    const size_t i = index;
    const uint8_t *row = t.fixed_[i].data();
    const uint16_t flags = rowFlags(row);

    DynInst d;
    d.seq = i;
    d.pc = rowPc(row);
    d.op = static_cast<Opcode>(row[off_op]);
    d.cls = static_cast<OpClass>(row[off_cls]);
    d.numSrcs = flags & num_srcs_mask;
    d.srcs = {row[off_srcs], row[off_srcs + 1], row[off_srcs + 2]};
    d.dest = row[off_dest];
    d.isLoad = flags & f_load;
    d.isStore = flags & f_store;
    d.size = size_table[(flags >> size_code_shift) & size_code_mask];
    d.addrSrc = row[off_addr_src];
    d.branch = flags & f_branch;
    d.taken = flags & f_taken;
    d.tableId = row[off_table_id];
    d.aliased = flags & f_aliased;

    if (flags & f_has_addr) {
        if (flags & f_wide_addr) {
            assert(addrWidePos < t.addrWide_.size());
            d.addr = t.addrWide_[addrWidePos++];
        } else {
            assert(addr32Pos < t.addr32_.size());
            d.addr = t.addr32_[addr32Pos++];
        }
    }
    if (flags & f_next_pc_exc) {
        assert(nextPcPos < t.nextPcExc_.size());
        d.nextPc = t.nextPcExc_[nextPcPos++];
    } else {
        d.nextPc = d.pc + 1;
    }
    if (flags & f_has_result) {
        assert(resultPos < t.result_.size());
        d.result = t.result_[resultPos++];
    }

    ++index;
    return d;
}

} // namespace cryptarch::isa

#endif // CRYPTARCH_ISA_PACKED_TRACE_HH
