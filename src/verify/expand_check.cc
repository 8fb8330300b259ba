#include "verify/expand_check.hh"

#include <string_view>

namespace cryptarch::verify
{

std::string_view
firstDynInstDifference(const isa::DynInst &a, const isa::DynInst &b)
{
    if (a.seq != b.seq)
        return "seq";
    if (a.pc != b.pc)
        return "pc";
    if (a.op != b.op)
        return "op";
    if (a.cls != b.cls)
        return "cls";
    if (a.numSrcs != b.numSrcs)
        return "numSrcs";
    if (a.srcs != b.srcs)
        return "srcs";
    if (a.dest != b.dest)
        return "dest";
    if (a.isLoad != b.isLoad)
        return "isLoad";
    if (a.isStore != b.isStore)
        return "isStore";
    if (a.addr != b.addr)
        return "addr";
    if (a.size != b.size)
        return "size";
    if (a.addrSrc != b.addrSrc)
        return "addrSrc";
    if (a.branch != b.branch)
        return "branch";
    if (a.taken != b.taken)
        return "taken";
    if (a.nextPc != b.nextPc)
        return "nextPc";
    if (a.tableId != b.tableId)
        return "tableId";
    if (a.aliased != b.aliased)
        return "aliased";
    if (a.result != b.result)
        return "result";
    return {};
}

void
StreamMatchSink::emit(const isa::DynInst &inst)
{
    seen_++;
    if (!matched_)
        return;
    if (reader_.done()) {
        matched_ = false;
        why_ = "candidate stream longer than reference ("
            + std::to_string(expected_) + " instructions)";
        return;
    }
    const isa::DynInst want = reader_.next();
    const std::string_view field = firstDynInstDifference(want, inst);
    if (!field.empty()) {
        matched_ = false;
        why_ = "streams diverge at seq " + std::to_string(want.seq)
            + " in field " + std::string(field);
        return;
    }
    if (downstream_)
        downstream_->emit(inst);
}

bool
verifyExpansion(const isa::PackedTrace &packed,
                const isa::CompressedTrace &compressed, std::string *why)
{
    if (packed.size() != compressed.instructions()) {
        if (why)
            *why = "instruction counts differ: packed "
                + std::to_string(packed.size()) + ", expanded "
                + std::to_string(compressed.instructions());
        return false;
    }
    StreamMatchSink matcher(packed);
    compressed.expandInto(matcher);
    if (!matcher.complete() && why)
        *why = matcher.why();
    return matcher.complete();
}

} // namespace cryptarch::verify
