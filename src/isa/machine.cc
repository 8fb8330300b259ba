#include "isa/machine.hh"

#include <cstdio>
#include <stdexcept>

#include "crypto/idea.hh"
#include "util/bitops.hh"

namespace cryptarch::isa
{

using util::rotl32;
using util::rotl64;
using util::rotr32;
using util::rotr64;

namespace
{

[[noreturn]] void
throwOobAccess(uint64_t addr, unsigned size, size_t mem_size,
               bool is_store)
{
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "%u-byte %s at addr=0x%llx beyond %zu-byte memory",
                  size, is_store ? "store" : "load",
                  static_cast<unsigned long long>(addr), mem_size);
    throw Trap(is_store ? TrapCause::OobStore : TrapCause::OobLoad,
               detail)
        .withAccess(addr, size);
}

[[noreturn]] void
throwMisaligned(uint64_t addr, unsigned size, bool is_store)
{
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "misaligned %u-byte %s at addr=0x%llx", size,
                  is_store ? "store" : "load",
                  static_cast<unsigned long long>(addr));
    throw Trap(TrapCause::Misaligned, detail).withAccess(addr, size);
}

[[noreturn]] void
throwPcOverrun(uint32_t pc, size_t program_size)
{
    char detail[64];
    std::snprintf(detail, sizeof(detail),
                  "pc=%u beyond %zu-instruction program",
                  static_cast<unsigned>(pc), program_size);
    throw Trap(TrapCause::PcOverrun, detail);
}

[[noreturn]] void
throwFuelExhausted(uint64_t max_insts)
{
    char detail[64];
    std::snprintf(detail, sizeof(detail), "instruction limit %llu hit",
                  static_cast<unsigned long long>(max_insts));
    throw Trap(TrapCause::FuelExhausted, detail);
}

[[noreturn]] void
throwInvalidSboxTable(unsigned table_id)
{
    char detail[64];
    std::snprintf(detail, sizeof(detail), "SBOX table id %u >= %u",
                  table_id, max_sbox_tables);
    throw Trap(TrapCause::InvalidSboxTable, detail).withTable(table_id);
}

/** Alpha-style natural alignment for sized accesses. */
void
checkAlign(uint64_t addr, unsigned size, bool is_store)
{
    if (size > 1 && (addr & (size - 1)))
        throwMisaligned(addr, size, is_store);
}

} // namespace

Machine::Machine(size_t mem_bytes) : mem(mem_bytes, 0) {}

void
Machine::setReg(Reg r, uint64_t v)
{
    if (r.n != reg_zero.n)
        regs[r.n] = v;
}

void
Machine::checkAddr(uint64_t addr, unsigned size, bool isStore) const
{
    // Overflow-proof form of addr + size > mem.size().
    if (addr > mem.size() || size > mem.size() - addr)
        throwOobAccess(addr, size, mem.size(), isStore);
}

void
Machine::writeMem(uint64_t addr, const std::vector<uint8_t> &bytes)
{
    checkAddr(addr, bytes.size(), /*isStore=*/true);
    std::copy(bytes.begin(), bytes.end(), mem.begin() + addr);
}

std::vector<uint8_t>
Machine::readMem(uint64_t addr, size_t n) const
{
    checkAddr(addr, n, /*isStore=*/false);
    return {mem.begin() + addr, mem.begin() + addr + n};
}

void
Machine::write32(uint64_t addr, uint32_t v)
{
    storeSized(addr, 4, v);
}

uint32_t
Machine::read32(uint64_t addr) const
{
    return static_cast<uint32_t>(loadSized(addr, 4));
}

uint64_t
Machine::loadSized(uint64_t addr, unsigned size) const
{
    checkAddr(addr, size, /*isStore=*/false);
    checkAlign(addr, size, /*isStore=*/false);
    uint64_t v = 0;
    for (unsigned i = 0; i < size; i++)
        v |= static_cast<uint64_t>(mem[addr + i]) << (8 * i);
    return v;
}

void
Machine::storeSized(uint64_t addr, unsigned size, uint64_t value)
{
    checkAddr(addr, size, /*isStore=*/true);
    checkAlign(addr, size, /*isStore=*/true);
    for (unsigned i = 0; i < size; i++)
        mem[addr + i] = static_cast<uint8_t>(value >> (8 * i));
}

uint32_t
Machine::sboxRead(uint64_t addr)
{
    checkAddr(addr, 4, /*isStore=*/false);
    uint64_t frame = addr & ~0x3FFull;
    auto it = sboxSnapshots.find(frame);
    if (it == sboxSnapshots.end()) {
        checkAddr(frame, 1024, /*isStore=*/false);
        it = sboxSnapshots
                 .emplace(frame, std::vector<uint8_t>(
                                     mem.begin() + frame,
                                     mem.begin() + frame + 1024))
                 .first;
    }
    const auto &snap = it->second;
    uint64_t off = addr - frame;
    return static_cast<uint32_t>(snap[off])
        | (static_cast<uint32_t>(snap[off + 1]) << 8)
        | (static_cast<uint32_t>(snap[off + 2]) << 16)
        | (static_cast<uint32_t>(snap[off + 3]) << 24);
}

namespace
{

unsigned
memSize(Opcode op)
{
    switch (op) {
      case Opcode::Ldq:
      case Opcode::Stq:
        return 8;
      case Opcode::Ldl:
      case Opcode::Stl:
      case Opcode::Sbox:
      case Opcode::Sboxx:
        return 4;
      case Opcode::Ldwu:
      case Opcode::Stw:
        return 2;
      default:
        return 1;
    }
}

constexpr uint64_t mask32 = 0xFFFFFFFFull;

} // namespace

DecodedInst
decode(const Inst &inst, uint32_t pc)
{
    DecodedInst d;
    DynInst &t = d.tmpl;
    t.pc = pc;
    t.op = inst.op;
    t.cls = opClass(inst);
    t.tableId = inst.tableId;
    t.aliased = inst.aliased;
    t.nextPc = pc + 1;
    d.target = static_cast<uint32_t>(inst.target);
    if (inst.writesDest())
        t.dest = inst.rc.n;

    auto addSrc = [&](Reg r) {
        if (r.n != reg_zero.n && t.numSrcs < 3)
            t.srcs[t.numSrcs++] = r.n;
    };

    switch (inst.op) {
      case Opcode::Halt:
        t.nextPc = 0;
        break;
      case Opcode::Br:
        t.branch = true;
        t.taken = true;
        t.nextPc = d.target;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        addSrc(inst.ra);
        t.branch = true;
        d.conditional = true;
        break;

      case Opcode::Ldq:
      case Opcode::Ldl:
      case Opcode::Ldwu:
      case Opcode::Ldbu:
        addSrc(inst.ra);
        t.isLoad = true;
        t.size = memSize(inst.op);
        t.addrSrc = inst.ra.n;
        break;
      case Opcode::Stq:
      case Opcode::Stl:
      case Opcode::Stw:
      case Opcode::Stb:
        addSrc(inst.ra);
        addSrc(inst.rc); // store value
        t.isStore = true;
        t.size = memSize(inst.op);
        t.addrSrc = inst.ra.n;
        break;

      case Opcode::Extbl:
        addSrc(inst.ra);
        break;
      case Opcode::Cmoveq:
      case Opcode::Cmovne:
        addSrc(inst.ra);
        addSrc(inst.rb);
        addSrc(inst.rc); // old value is a source
        break;
      case Opcode::Rolx32:
      case Opcode::Rorx32:
        addSrc(inst.ra);
        addSrc(inst.rc); // destination is also a source
        break;
      case Opcode::Sbox:
      case Opcode::Sboxx:
        addSrc(inst.ra);
        addSrc(inst.rb);
        if (inst.op == Opcode::Sboxx)
            addSrc(inst.rc); // destination is also a source
        t.isLoad = true;
        t.size = memSize(inst.op);
        break;
      case Opcode::Sboxsync:
        break;
      case Opcode::Grp:
      case Opcode::Xbox:
        addSrc(inst.ra);
        addSrc(inst.rb);
        break;

      default: // two-operand ALU: rb or an immediate
        addSrc(inst.ra);
        if (!inst.useImm)
            addSrc(inst.rb);
        break;
    }
    return d;
}

std::vector<DecodedInst>
decode(const Program &program)
{
    std::vector<DecodedInst> decoded;
    decoded.reserve(program.size());
    for (size_t pc = 0; pc < program.size(); pc++)
        decoded.push_back(decode(program[pc], static_cast<uint32_t>(pc)));
    return decoded;
}

void
Machine::applyFaults(uint64_t seq)
{
    for (auto it = faults.begin(); it != faults.end();) {
        if (it->seq != seq) {
            ++it;
            continue;
        }
        if (it->isReg) {
            Reg r{static_cast<uint8_t>(it->target % num_regs)};
            setReg(r, regs[r.n] ^ it->xorMask);
        } else if (it->target < mem.size()) {
            mem[it->target] ^= static_cast<uint8_t>(it->xorMask);
        }
        it = faults.erase(it);
    }
}

RunStats
Machine::run(const Program &program, TraceSink *sink, uint64_t max_insts)
{
    RunStats stats;
    uint32_t pc = 0;
    const std::vector<DecodedInst> decoded = decode(program);

    try {
    while (true) {
        if (pc >= program.size())
            throwPcOverrun(pc, program.size());
        if (stats.instructions >= max_insts)
            throwFuelExhausted(max_insts);
        if (!faults.empty())
            applyFaults(stats.instructions);

        const Inst &inst = program[pc];
        const DecodedInst &dec = decoded[pc];
        uint64_t a = regs[inst.ra.n];
        uint64_t b = inst.useImm ? static_cast<uint64_t>(inst.imm)
                                 : regs[inst.rb.n];

        DynInst dyn = dec.tmpl;
        dyn.seq = stats.instructions;
        uint64_t result = 0;

        switch (inst.op) {
          case Opcode::Halt:
            if (sink)
                sink->emit(dyn);
            stats.instructions++;
            return stats;

          case Opcode::Br:
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge: {
            bool cond = false;
            switch (inst.op) {
              case Opcode::Beq: cond = a == 0; break;
              case Opcode::Bne: cond = a != 0; break;
              case Opcode::Blt: cond = static_cast<int64_t>(a) < 0; break;
              default: cond = static_cast<int64_t>(a) >= 0; break;
            }
            if (cond) {
                dyn.taken = true;
                dyn.nextPc = dec.target;
            }
            break;
          }

          case Opcode::Ldq:
          case Opcode::Ldl:
          case Opcode::Ldwu:
          case Opcode::Ldbu:
            dyn.addr = a + inst.imm;
            result = loadSized(dyn.addr, dyn.size);
            break;

          case Opcode::Stq:
          case Opcode::Stl:
          case Opcode::Stw:
          case Opcode::Stb:
            dyn.addr = a + inst.imm;
            storeSized(dyn.addr, dyn.size, regs[inst.rc.n]);
            break;

          case Opcode::Addq: result = a + b; break;
          case Opcode::Subq: result = a - b; break;
          case Opcode::Addl: result = (a + b) & mask32; break;
          case Opcode::Subl: result = (a - b) & mask32; break;
          case Opcode::And: result = a & b; break;
          case Opcode::Bis: result = a | b; break;
          case Opcode::Xor: result = a ^ b; break;
          case Opcode::Bic: result = a & ~b; break;
          case Opcode::Ornot: result = a | ~b; break;
          case Opcode::Sll: result = a << (b & 63); break;
          case Opcode::Srl: result = a >> (b & 63); break;
          case Opcode::Sra:
            result = static_cast<uint64_t>(static_cast<int64_t>(a)
                                           >> (b & 63));
            break;
          case Opcode::Sll32: result = ((a & mask32) << (b & 31)) & mask32; break;
          case Opcode::Srl32: result = (a & mask32) >> (b & 31); break;
          case Opcode::Extbl: result = (a >> (8 * (b & 7))) & 0xFF; break;
          case Opcode::S4add: result = (a << 2) + b; break;
          case Opcode::S8add: result = (a << 3) + b; break;
          case Opcode::Cmpeq: result = a == b; break;
          case Opcode::Cmpult: result = a < b; break;
          case Opcode::Cmplt:
            result = static_cast<int64_t>(a) < static_cast<int64_t>(b);
            break;
          case Opcode::Cmoveq:
          case Opcode::Cmovne: {
            bool move = inst.op == Opcode::Cmoveq ? a == 0 : a != 0;
            result = move ? b : regs[inst.rc.n];
            break;
          }

          case Opcode::Mulq: result = a * b; break;
          case Opcode::Mull: result = (a * b) & mask32; break;

          case Opcode::Rol: result = rotl64(a, b & 63); break;
          case Opcode::Ror: result = rotr64(a, b & 63); break;
          case Opcode::Rol32: result = rotl32(static_cast<uint32_t>(a), b & 31); break;
          case Opcode::Ror32: result = rotr32(static_cast<uint32_t>(a), b & 31); break;
          case Opcode::Rolx32:
            result = (rotl32(static_cast<uint32_t>(a), inst.imm & 31)
                      ^ regs[inst.rc.n])
                & mask32;
            break;
          case Opcode::Rorx32:
            result = (rotr32(static_cast<uint32_t>(a), inst.imm & 31)
                      ^ regs[inst.rc.n])
                & mask32;
            break;

          case Opcode::Mulmod:
            result = crypto::ideaMulMod(static_cast<uint16_t>(a),
                                        static_cast<uint16_t>(b));
            break;

          case Opcode::Sbox:
          case Opcode::Sboxx: {
            if (inst.tableId >= max_sbox_tables)
                throwInvalidSboxTable(inst.tableId);
            uint64_t index = (regs[inst.rb.n] >> (8 * inst.byteSel))
                & 0xFF;
            dyn.addr = (a & ~0x3FFull) | (index << 2);
            uint32_t value = inst.aliased
                ? static_cast<uint32_t>(loadSized(dyn.addr, 4))
                : sboxRead(dyn.addr);
            result = inst.op == Opcode::Sboxx ? regs[inst.rc.n] ^ value
                                              : value;
            break;
          }

          case Opcode::Sboxsync:
            sboxSnapshots.clear();
            break;

          case Opcode::Grp: {
            // Group permutation [Shi & Lee 00]: source bits whose
            // control bit is 0 pack into the low end (ascending),
            // bits whose control bit is 1 pack into the high end.
            uint64_t control = regs[inst.rb.n];
            uint64_t lo = 0, hi = 0;
            unsigned nlo = 0, nhi = 0;
            for (unsigned i = 0; i < 64; i++) {
                uint64_t bit = (a >> i) & 1;
                if ((control >> i) & 1)
                    hi |= bit << nhi++;
                else
                    lo |= bit << nlo++;
            }
            result = lo;
            if (nlo < 64) // nlo == 64 (all-zero control) leaves hi empty
                result |= hi << nlo;
            break;
          }

          case Opcode::Xbox: {
            // Partial general permutation: byte #byteSel of the result
            // receives eight bits of ra selected by the eight 6-bit
            // indices packed in rb; all other result bits are zero
            // (composition uses an OR tree, 7 insts per 32-bit
            // permutation as the paper reports).
            uint64_t map = regs[inst.rb.n];
            result = 0;
            for (unsigned j = 0; j < 8; j++) {
                unsigned src_bit = (map >> (6 * j)) & 0x3F;
                uint64_t bit = (a >> src_bit) & 1;
                result |= bit << (8 * inst.byteSel + j);
            }
            break;
          }
        }

        if (dyn.dest != reg_zero.n) {
            setReg(inst.rc, result);
            dyn.result = result;
        }

        if (sink)
            sink->emit(dyn);
        stats.instructions++;
        pc = dyn.nextPc;
    }
    } catch (const Trap &t) {
        // Rethrow with execution context: faulting pc, sequence number
        // and the register file at the moment of the trap.
        throw Trap::annotated(t, pc, stats.instructions, regs);
    }
}

} // namespace cryptarch::isa
