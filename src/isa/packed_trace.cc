#include "isa/packed_trace.hh"

namespace cryptarch::isa
{

uint16_t
PackedTrace::sizeCode(uint8_t size)
{
    switch (size) {
    case 0:
        return 0;
    case 1:
        return 1;
    case 2:
        return 2;
    case 4:
        return 3;
    case 8:
        return 4;
    default:
        assert(!"unencodable access size");
        return 0;
    }
}

uint16_t
PackedTrace::packRowBase(const DynInst &inst, uint8_t (&row)[row_bytes])
{
    assert(inst.numSrcs <= 3);

    uint16_t flags = inst.numSrcs & num_srcs_mask;
    if (inst.isLoad)
        flags |= f_load;
    if (inst.isStore)
        flags |= f_store;
    if (inst.branch)
        flags |= f_branch;
    if (inst.taken)
        flags |= f_taken;
    if (inst.aliased)
        flags |= f_aliased;
    flags |= sizeCode(inst.size) << size_code_shift;
    if (inst.nextPc != inst.pc + 1)
        flags |= f_next_pc_exc;

    row[off_pc] = static_cast<uint8_t>(inst.pc);
    row[off_pc + 1] = static_cast<uint8_t>(inst.pc >> 8);
    row[off_pc + 2] = static_cast<uint8_t>(inst.pc >> 16);
    row[off_pc + 3] = static_cast<uint8_t>(inst.pc >> 24);
    row[off_op] = static_cast<uint8_t>(inst.op);
    row[off_cls] = static_cast<uint8_t>(inst.cls);
    row[off_dest] = inst.dest;
    row[off_addr_src] = inst.addrSrc;
    row[off_table_id] = inst.tableId;
    row[off_srcs] = inst.srcs[0];
    row[off_srcs + 1] = inst.srcs[1];
    row[off_srcs + 2] = inst.srcs[2];
    row[off_flags] = static_cast<uint8_t>(flags);
    row[off_flags + 1] = static_cast<uint8_t>(flags >> 8);
    return flags;
}

void
PackedTrace::append(const DynInst &inst, bool keepResult)
{
    assert(inst.seq == size() && "seq must equal append index");

    uint8_t row[row_bytes];
    uint16_t flags = packRowBase(inst, row);
    if (inst.addr != 0) {
        flags |= f_has_addr;
        if (inst.addr >> 32)
            flags |= f_wide_addr;
    }
    if (keepResult && inst.result != 0)
        flags |= f_has_result;
    appendRow(row, flags, inst.addr, inst.nextPc, inst.result);
}

void
PackedTrace::Stage::flush(PackedTrace &t)
{
    t.fixed_.insert(t.fixed_.end(), rows, rows + nRows);
    t.addr32_.insert(t.addr32_.end(), addr32, addr32 + nAddr32);
    t.addrWide_.insert(t.addrWide_.end(), addrWide, addrWide + nWide);
    t.nextPcExc_.insert(t.nextPcExc_.end(), nextPcExc,
                        nextPcExc + nNextPc);
    t.result_.insert(t.result_.end(), result, result + nResult);
    nRows = nAddr32 = nWide = nNextPc = nResult = 0;
}

void
PackedTrace::reserve(size_t n)
{
    fixed_.reserve(n);
}

size_t
PackedTrace::packedBytes() const
{
    return fixed_.size() * row_bytes
        + addr32_.size() * sizeof(uint32_t)
        + addrWide_.size() * sizeof(uint64_t)
        + nextPcExc_.size() * sizeof(uint32_t)
        + result_.size() * sizeof(uint64_t);
}

void
PackedTrace::clear()
{
    fixed_.clear();
    addr32_.clear();
    addrWide_.clear();
    nextPcExc_.clear();
    result_.clear();
}

} // namespace cryptarch::isa
