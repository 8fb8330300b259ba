#include "isa/compressed_trace.hh"

#include <algorithm>
#include <unordered_map>

namespace cryptarch::isa
{

const char *
compressOutcomeName(CompressOutcome outcome)
{
    switch (outcome) {
      case CompressOutcome::Accepted: return "accepted";
      case CompressOutcome::NoLoop: return "no-loop";
      case CompressOutcome::IrregularBody: return "irregular-body";
      case CompressOutcome::LooseAddresses: return "loose-addresses";
      case CompressOutcome::NoGain: return "no-gain";
      case CompressOutcome::ExpandMismatch: return "expand-mismatch";
      case CompressOutcome::NotAttempted: return "not-attempted";
    }
    return "?";
}

namespace
{

bool
isSboxOp(uint8_t op)
{
    return op == static_cast<uint8_t>(Opcode::Sbox)
        || op == static_cast<uint8_t>(Opcode::Sboxx);
}

/**
 * Per-slot classification state accumulated across steady iterations.
 * Iteration 0 seeds the skeleton; every later iteration either matches
 * it or degrades the field to an explicit per-iteration table (or, for
 * fields with no explicit escape, refuses the candidate).
 */
struct SlotTracker
{
    CompressedTrace::Slot slot;

    uint64_t addr0 = 0;
    uint64_t addrStride = 0;
    bool addrExplicit = false;

    bool anyTaken = false;
    bool anyNotTaken = false;
    bool haveTarget = false;

    uint64_t result0 = 0;
    bool resultExplicit = false;
};

/** Skeleton fields that must be identical in every steady iteration. */
bool
staticMatches(const CompressedTrace::Slot &s, const DynInst &d)
{
    return s.pc == d.pc && s.op == static_cast<uint8_t>(d.op)
        && s.cls == static_cast<uint8_t>(d.cls) && s.dest == d.dest
        && s.addrSrc == d.addrSrc && s.tableId == d.tableId
        && s.srcs == d.srcs && s.numSrcs == d.numSrcs && s.size == d.size
        && s.isLoad == d.isLoad && s.isStore == d.isStore
        && s.branch == d.branch && s.aliased == d.aliased;
}

void
seedTracker(SlotTracker &t, const DynInst &d)
{
    CompressedTrace::Slot &s = t.slot;
    s.pc = d.pc;
    s.op = static_cast<uint8_t>(d.op);
    s.cls = static_cast<uint8_t>(d.cls);
    s.dest = d.dest;
    s.addrSrc = d.addrSrc;
    s.tableId = d.tableId;
    s.srcs = d.srcs;
    s.numSrcs = d.numSrcs;
    s.size = d.size;
    s.isLoad = d.isLoad;
    s.isStore = d.isStore;
    s.branch = d.branch;
    s.aliased = d.aliased;
    t.addr0 = d.addr;
    t.result0 = d.result;
}

} // namespace

CompressOutcome
CompressedTrace::compress(const PackedTrace &packed, CompressedTrace &out)
{
    out = CompressedTrace();
    const size_t n = packed.size();
    if (n == 0)
        return CompressOutcome::NoLoop;

    // Pass 1: taken-backward-branch frequency by pc. The steady-state
    // block loop closes with by far the most frequent one; nested
    // candidates are tried most-frequent-first so an irregular inner
    // loop falls through to the enclosing one.
    std::unordered_map<uint32_t, uint64_t> takenBack;
    for (auto r = packed.reader(); !r.done();) {
        DynInst d = r.next();
        if (d.branch && d.taken && d.nextPc <= d.pc)
            takenBack[d.pc]++;
    }
    std::vector<std::pair<uint64_t, uint32_t>> ranked; // (count, pc)
    for (const auto &[pc, count] : takenBack)
        if (count >= min_iterations)
            ranked.emplace_back(count, pc);
    if (ranked.empty())
        return CompressOutcome::NoLoop;
    std::sort(ranked.begin(), ranked.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    if (ranked.size() > max_candidates)
        ranked.resize(max_candidates);

    // Pass 2: dynamic positions of every candidate pc (taken or not —
    // the final fall-through occurrence delimits the last iteration).
    std::unordered_map<uint32_t, std::vector<uint64_t>> positions;
    for (const auto &[count, pc] : ranked)
        positions.emplace(pc, std::vector<uint64_t>());
    {
        uint64_t idx = 0;
        for (auto r = packed.reader(); !r.done(); idx++) {
            DynInst d = r.next();
            auto it = positions.find(d.pc);
            if (it != positions.end())
                it->second.push_back(idx);
        }
    }

    CompressOutcome firstRefusal = CompressOutcome::NoLoop;
    bool haveRefusal = false;
    auto refuse = [&](CompressOutcome why) {
        if (!haveRefusal) {
            firstRefusal = why;
            haveRefusal = true;
        }
    };

    for (const auto &[count, candidatePc] : ranked) {
        const auto &occ = positions.at(candidatePc);
        if (occ.size() < 2) {
            refuse(CompressOutcome::NoLoop);
            continue;
        }
        const uint64_t bodyLen = occ[1] - occ[0];
        bool constantGap = bodyLen > 0;
        for (size_t i = 2; constantGap && i < occ.size(); i++)
            constantGap = occ[i] - occ[i - 1] == bodyLen;
        if (!constantGap) {
            refuse(CompressOutcome::IrregularBody);
            continue;
        }
        const uint64_t iters = occ.size() - 1;
        if (iters < min_iterations) {
            refuse(CompressOutcome::NoLoop);
            continue;
        }
        const uint64_t steadyStart = occ.front() + 1;
        const uint64_t steadyEnd = occ.back() + 1;

        // Pass 3: classify every steady slot across all iterations.
        std::vector<SlotTracker> track(bodyLen);
        bool ok = true;
        CompressOutcome why = CompressOutcome::IrregularBody;
        uint64_t idx = 0;
        for (auto r = packed.reader(); ok && !r.done(); idx++) {
            DynInst d = r.next();
            if (idx < steadyStart || idx >= steadyEnd)
                continue;
            const uint64_t off = idx - steadyStart;
            const uint64_t t = off / bodyLen;
            SlotTracker &tr = track[off % bodyLen];
            Slot &s = tr.slot;
            if (t == 0) {
                seedTracker(tr, d);
            } else {
                if (!staticMatches(s, d)) {
                    ok = false;
                    why = CompressOutcome::IrregularBody;
                    break;
                }
                if (t == 1)
                    tr.addrStride = d.addr - tr.addr0;
                if (!tr.addrExplicit
                    && d.addr != tr.addr0 + tr.addrStride * t) {
                    // Non-affine address stream: the SBOX escape is
                    // the paper's data-dependent substitution traffic;
                    // an ordinary load/store doing this (RC4's table
                    // swap) makes the whole stream uncompressible.
                    if (!isSboxOp(s.op)) {
                        ok = false;
                        why = CompressOutcome::LooseAddresses;
                        break;
                    }
                    tr.addrExplicit = true;
                }
                if (d.result != tr.result0)
                    tr.resultExplicit = true;
            }
            // Addresses in explicit tables are stored as u32; the
            // machine's memory is orders of magnitude smaller, so a
            // wide address here means a malformed stream.
            if (d.addr >> 32) {
                ok = false;
                why = CompressOutcome::IrregularBody;
                break;
            }
            if (s.branch) {
                if (d.taken) {
                    tr.anyTaken = true;
                    if (!tr.haveTarget) {
                        tr.haveTarget = true;
                        s.takenTarget = d.nextPc;
                    } else if (d.nextPc != s.takenTarget) {
                        ok = false;
                        break;
                    }
                } else {
                    tr.anyNotTaken = true;
                    if (d.nextPc != d.pc + 1) {
                        ok = false;
                        break;
                    }
                }
            } else if (d.taken || d.nextPc != d.pc + 1) {
                ok = false;
                break;
            }
        }
        if (!ok) {
            refuse(why);
            continue;
        }

        // Candidate holds. Freeze slot modes and table ranks.
        uint32_t nAddrSlots = 0, nTakenSlots = 0, nResultSlots = 0;
        for (SlotTracker &tr : track) {
            Slot &s = tr.slot;
            if (tr.addrExplicit)
                s.addrMode = addr_explicit;
            else if (tr.addr0 != 0 || tr.addrStride != 0) {
                s.addrMode = addr_affine;
                s.addrBase = tr.addr0;
                s.addrStride = tr.addrStride;
            }
            if (s.branch)
                s.takenMode = tr.anyTaken
                    ? (tr.anyNotTaken ? taken_varying : taken_always)
                    : taken_never;
            if (tr.resultExplicit)
                s.resultMode = result_explicit;
            else if (tr.result0 != 0) {
                s.resultMode = result_constant;
                s.resultConst = tr.result0;
            }
            if (s.addrMode == addr_explicit)
                s.addrTable = nAddrSlots++;
            if (s.takenMode == taken_varying)
                s.takenTable = nTakenSlots++;
            if (s.resultMode == result_explicit)
                s.resultTable = nResultSlots++;
        }

        out.iterations_ = iters;
        out.body_.reserve(bodyLen);
        for (SlotTracker &tr : track)
            out.body_.push_back(tr.slot);
        out.explicitAddr_.assign(nAddrSlots * iters, 0);
        out.takenBits_.assign(nTakenSlots * ((iters + 7) / 8), 0);
        out.explicitResult_.assign(nResultSlots * iters, 0);
        out.prefix_.reserve(steadyStart);

        // Pass 4: fill the stitches and delta tables.
        const size_t bitsPerSlot = (iters + 7) / 8;
        idx = 0;
        for (auto r = packed.reader(); !r.done(); idx++) {
            DynInst d = r.next();
            if (idx < steadyStart) {
                out.prefix_.append(d); // local seq == global seq here
                continue;
            }
            if (idx >= steadyEnd) {
                d.seq = idx - steadyEnd;
                out.suffix_.append(d);
                continue;
            }
            const uint64_t off = idx - steadyStart;
            const uint64_t t = off / bodyLen;
            const Slot &s = out.body_[off % bodyLen];
            if (s.addrMode == addr_explicit)
                out.explicitAddr_[s.addrTable * iters + t] =
                    static_cast<uint32_t>(d.addr);
            if (s.takenMode == taken_varying && d.taken)
                out.takenBits_[s.takenTable * bitsPerSlot + t / 8] |=
                    static_cast<uint8_t>(1u << (t & 7));
            if (s.resultMode == result_explicit)
                out.explicitResult_[s.resultTable * iters + t] = d.result;
        }
        return CompressOutcome::Accepted;
    }

    out = CompressedTrace();
    return firstRefusal;
}

size_t
CompressedTrace::storedBytes() const
{
    return body_.size() * slot_bytes
        + explicitAddr_.size() * sizeof(uint32_t)
        + takenBits_.size() + explicitResult_.size() * sizeof(uint64_t)
        + prefix_.packedBytes() + suffix_.packedBytes();
}

// ---------------------------------------------------------------------------
// Expansion

void
CompressedTrace::buildBodyTemplate(std::vector<DynInst> &body,
                                   std::vector<uint32_t> &patchSlots) const
{
    body.clear();
    patchSlots.clear();
    body.reserve(body_.size());
    for (size_t i = 0; i < body_.size(); i++) {
        const Slot &s = body_[i];
        DynInst d;
        d.pc = s.pc;
        d.op = static_cast<Opcode>(s.op);
        d.cls = static_cast<OpClass>(s.cls);
        d.numSrcs = s.numSrcs;
        d.srcs = s.srcs;
        d.dest = s.dest;
        d.isLoad = s.isLoad;
        d.isStore = s.isStore;
        d.size = s.size;
        d.addrSrc = s.addrSrc;
        d.branch = s.branch;
        d.tableId = s.tableId;
        d.aliased = s.aliased;
        d.nextPc = s.pc + 1;
        switch (s.takenMode) {
          case taken_always:
            d.taken = true;
            d.nextPc = s.takenTarget;
            break;
          case taken_never:
          case taken_none:
          default:
            break;
        }
        if (s.addrMode == addr_affine)
            d.addr = s.addrBase;
        if (s.resultMode == result_constant)
            d.result = s.resultConst;
        body.push_back(d);

        const bool patches =
            (s.addrMode == addr_affine && s.addrStride != 0)
            || s.addrMode == addr_explicit
            || s.takenMode == taken_varying
            || s.resultMode == result_explicit;
        if (patches)
            patchSlots.push_back(static_cast<uint32_t>(i));
    }
}

void
CompressedTrace::patchBody(std::vector<DynInst> &body,
                           const std::vector<uint32_t> &patchSlots,
                           uint64_t t) const
{
    const uint64_t iters = iterations_;
    const size_t bitsPerSlot = (iters + 7) / 8;
    for (uint32_t si : patchSlots) {
        const Slot &s = body_[si];
        DynInst &d = body[si];
        if (s.addrMode == addr_affine)
            d.addr = s.addrBase + s.addrStride * t;
        else if (s.addrMode == addr_explicit)
            d.addr = explicitAddr_[s.addrTable * iters + t];
        if (s.takenMode == taken_varying) {
            const bool tk = (takenBits_[s.takenTable * bitsPerSlot + t / 8]
                             >> (t & 7))
                & 1;
            d.taken = tk;
            d.nextPc = tk ? s.takenTarget : s.pc + 1;
        }
        if (s.resultMode == result_explicit)
            d.result = explicitResult_[s.resultTable * iters + t];
    }
}

} // namespace cryptarch::isa
