#include "isa/packed_trace.hh"

namespace cryptarch::isa
{

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
