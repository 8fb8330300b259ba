#include "util/bigint.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace cryptarch::util
{

namespace
{
uint64_t g_mul_ops = 0;
} // namespace

uint64_t BigInt::mulOps() { return g_mul_ops; }
void BigInt::resetMulOps() { g_mul_ops = 0; }

BigInt::BigInt(uint64_t v)
{
    if (v) {
        limbs.push_back(static_cast<uint32_t>(v));
        if (v >> 32)
            limbs.push_back(static_cast<uint32_t>(v >> 32));
    }
}

void
BigInt::trim()
{
    while (!limbs.empty() && limbs.back() == 0)
        limbs.pop_back();
}

BigInt
BigInt::fromHex(std::string_view hex)
{
    BigInt r;
    for (char c : hex) {
        int v;
        if (c >= '0' && c <= '9')
            v = c - '0';
        else if (c >= 'a' && c <= 'f')
            v = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            v = c - 'A' + 10;
        else
            throw std::invalid_argument("BigInt::fromHex: bad digit");
        r = shl(r, 4);
        r = add(r, BigInt(static_cast<uint64_t>(v)));
    }
    return r;
}

std::string
BigInt::toHex() const
{
    if (limbs.empty())
        return "0";
    static const char digits[] = "0123456789abcdef";
    std::string out;
    bool leading = true;
    for (size_t i = limbs.size(); i-- > 0;) {
        for (int sh = 28; sh >= 0; sh -= 4) {
            int d = (limbs[i] >> sh) & 0xF;
            if (leading && d == 0 && !(i == 0 && sh == 0))
                continue;
            leading = false;
            out.push_back(digits[d]);
        }
    }
    return out;
}

unsigned
BigInt::bitLength() const
{
    if (limbs.empty())
        return 0;
    uint32_t top = limbs.back();
    unsigned bits = (limbs.size() - 1) * 32;
    while (top) {
        bits++;
        top >>= 1;
    }
    return bits;
}

bool
BigInt::bit(unsigned i) const
{
    size_t limb = i / 32;
    if (limb >= limbs.size())
        return false;
    return (limbs[limb] >> (i % 32)) & 1;
}

uint64_t
BigInt::low64() const
{
    uint64_t v = limbs.empty() ? 0 : limbs[0];
    if (limbs.size() > 1)
        v |= static_cast<uint64_t>(limbs[1]) << 32;
    return v;
}

int
BigInt::compare(const BigInt &a, const BigInt &b)
{
    if (a.limbs.size() != b.limbs.size())
        return a.limbs.size() < b.limbs.size() ? -1 : 1;
    for (size_t i = a.limbs.size(); i-- > 0;) {
        if (a.limbs[i] != b.limbs[i])
            return a.limbs[i] < b.limbs[i] ? -1 : 1;
    }
    return 0;
}

BigInt
BigInt::add(const BigInt &a, const BigInt &b)
{
    BigInt r;
    size_t n = std::max(a.limbs.size(), b.limbs.size());
    r.limbs.resize(n + 1, 0);
    uint64_t carry = 0;
    for (size_t i = 0; i < n; i++) {
        uint64_t s = carry;
        if (i < a.limbs.size())
            s += a.limbs[i];
        if (i < b.limbs.size())
            s += b.limbs[i];
        r.limbs[i] = static_cast<uint32_t>(s);
        carry = s >> 32;
    }
    r.limbs[n] = static_cast<uint32_t>(carry);
    r.trim();
    return r;
}

BigInt
BigInt::sub(const BigInt &a, const BigInt &b)
{
    assert(compare(a, b) >= 0);
    BigInt r;
    r.limbs.resize(a.limbs.size(), 0);
    int64_t borrow = 0;
    for (size_t i = 0; i < a.limbs.size(); i++) {
        int64_t d = static_cast<int64_t>(a.limbs[i]) - borrow
            - (i < b.limbs.size() ? b.limbs[i] : 0);
        borrow = d < 0 ? 1 : 0;
        r.limbs[i] = static_cast<uint32_t>(d);
    }
    assert(borrow == 0);
    r.trim();
    return r;
}

BigInt
BigInt::mul(const BigInt &a, const BigInt &b)
{
    if (a.isZero() || b.isZero())
        return {};
    BigInt r;
    r.limbs.assign(a.limbs.size() + b.limbs.size(), 0);
    for (size_t i = 0; i < a.limbs.size(); i++) {
        uint64_t carry = 0;
        for (size_t j = 0; j < b.limbs.size(); j++) {
            uint64_t cur = static_cast<uint64_t>(a.limbs[i]) * b.limbs[j]
                + r.limbs[i + j] + carry;
            g_mul_ops++;
            r.limbs[i + j] = static_cast<uint32_t>(cur);
            carry = cur >> 32;
        }
        r.limbs[i + b.limbs.size()] = static_cast<uint32_t>(carry);
    }
    r.trim();
    return r;
}

BigInt
BigInt::shl(const BigInt &a, unsigned n)
{
    if (a.isZero() || n == 0)
        return a;
    unsigned limb_shift = n / 32, bit_shift = n % 32;
    BigInt r;
    r.limbs.assign(a.limbs.size() + limb_shift + 1, 0);
    for (size_t i = 0; i < a.limbs.size(); i++) {
        uint64_t v = static_cast<uint64_t>(a.limbs[i]) << bit_shift;
        r.limbs[i + limb_shift] |= static_cast<uint32_t>(v);
        r.limbs[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
    }
    r.trim();
    return r;
}

BigInt
BigInt::shr(const BigInt &a, unsigned n)
{
    unsigned limb_shift = n / 32, bit_shift = n % 32;
    if (limb_shift >= a.limbs.size())
        return {};
    BigInt r;
    r.limbs.assign(a.limbs.size() - limb_shift, 0);
    for (size_t i = 0; i < r.limbs.size(); i++) {
        uint64_t v = a.limbs[i + limb_shift] >> bit_shift;
        if (bit_shift && i + limb_shift + 1 < a.limbs.size()) {
            v |= static_cast<uint64_t>(a.limbs[i + limb_shift + 1])
                << (32 - bit_shift);
        }
        r.limbs[i] = static_cast<uint32_t>(v);
    }
    r.trim();
    return r;
}

BigInt::DivMod
BigInt::divmod(const BigInt &a, const BigInt &b)
{
    if (b.isZero())
        throw std::domain_error("BigInt::divmod: divide by zero");
    DivMod out;
    if (compare(a, b) < 0) {
        out.rem = a;
        return out;
    }
    const size_t n = b.limbs.size(), m = a.limbs.size() - n;
    out.quot.limbs.assign(m + 1, 0);
    if (n == 1) {
        // One-limb divisor: a single 64/32 pass, most significant first.
        const uint64_t d = b.limbs[0];
        uint64_t rem = 0;
        for (size_t i = a.limbs.size(); i-- > 0;) {
            uint64_t cur = (rem << 32) | a.limbs[i];
            out.quot.limbs[i] = static_cast<uint32_t>(cur / d);
            rem = cur % d;
        }
        out.quot.trim();
        out.rem = BigInt(rem);
        return out;
    }

    // Knuth's Algorithm D (TAOCP vol. 2, 4.3.1), one quotient limb per
    // step. Shift both operands left until the divisor's top bit is set;
    // then the estimate from the remainder's top two limbs, corrected
    // with the divisor's second limb, is exact or one too large.
    const unsigned s = std::countl_zero(b.limbs.back());
    auto normalized = [s](uint32_t hi, uint32_t lo) {
        return static_cast<uint32_t>(
            ((static_cast<uint64_t>(hi) << 32 | lo) << s) >> 32);
    };
    std::vector<uint32_t> v(n), u(m + n + 1);
    for (size_t i = n - 1; i > 0; i--)
        v[i] = normalized(b.limbs[i], b.limbs[i - 1]);
    v[0] = b.limbs[0] << s;
    u[m + n] = normalized(0, a.limbs[m + n - 1]);
    for (size_t i = m + n - 1; i > 0; i--)
        u[i] = normalized(a.limbs[i], a.limbs[i - 1]);
    u[0] = a.limbs[0] << s;

    constexpr uint64_t base = uint64_t(1) << 32;
    for (size_t j = m + 1; j-- > 0;) {
        uint64_t top = static_cast<uint64_t>(u[j + n]) << 32 | u[j + n - 1];
        uint64_t qhat = top / v[n - 1], rhat = top % v[n - 1];
        while (qhat >= base
               || qhat * v[n - 2] > (rhat << 32 | u[j + n - 2])) {
            qhat--;
            rhat += v[n - 1];
            if (rhat >= base)
                break;
        }
        // u[j .. j+n] -= qhat * v.
        uint64_t carry = 0, borrow = 0;
        for (size_t i = 0; i < n; i++) {
            uint64_t p = qhat * v[i] + carry;
            carry = p >> 32;
            uint64_t sub = (p & 0xFFFFFFFF) + borrow;
            borrow = u[i + j] < sub;
            u[i + j] = static_cast<uint32_t>(u[i + j] - sub);
        }
        uint64_t sub = carry + borrow;
        borrow = u[j + n] < sub;
        u[j + n] = static_cast<uint32_t>(u[j + n] - sub);
        if (borrow) {
            // qhat was one too large: add v back once.
            qhat--;
            carry = 0;
            for (size_t i = 0; i < n; i++) {
                uint64_t t = static_cast<uint64_t>(u[i + j]) + v[i] + carry;
                u[i + j] = static_cast<uint32_t>(t);
                carry = t >> 32;
            }
            u[j + n] = static_cast<uint32_t>(u[j + n] + carry);
        }
        out.quot.limbs[j] = static_cast<uint32_t>(qhat);
    }
    out.quot.trim();
    // The remainder is u[0 .. n-1], shifted back down by s.
    out.rem.limbs.resize(n);
    for (size_t i = 0; i < n; i++) {
        out.rem.limbs[i] = static_cast<uint32_t>(
            (static_cast<uint64_t>(u[i + 1]) << 32 | u[i]) >> s);
    }
    out.rem.trim();
    return out;
}

BigInt
BigInt::mod(const BigInt &a, const BigInt &m)
{
    return divmod(a, m).rem;
}

BigInt
BigInt::modExp(const BigInt &base, const BigInt &exp, const BigInt &m)
{
    if (m.isZero())
        throw std::domain_error("BigInt::modExp: zero modulus");
    if (m.isOdd()) {
        Montgomery ctx(m);
        return ctx.modExp(base, exp);
    }
    // Even modulus: plain square-and-multiply with division reduction.
    BigInt result(1);
    result = mod(result, m);
    BigInt b = mod(base, m);
    for (unsigned i = exp.bitLength(); i-- > 0;) {
        result = mod(mul(result, result), m);
        if (exp.bit(i))
            result = mod(mul(result, b), m);
    }
    return result;
}

BigInt
BigInt::modInverse(const BigInt &a, const BigInt &m)
{
    // Extended Euclid on (a mod m, m) tracking only the coefficient of a.
    // Coefficients can go "negative"; track sign separately.
    BigInt r0 = mod(a, m), r1 = m;
    BigInt s0(1), s1(0);
    bool s0neg = false, s1neg = false;
    while (!r1.isZero()) {
        DivMod qr = divmod(r0, r1);
        // (r0, r1) <- (r1, r0 - q*r1)
        r0 = r1;
        r1 = qr.rem;
        // (s0, s1) <- (s1, s0 - q*s1)
        BigInt qs = mul(qr.quot, s1);
        BigInt new_s;
        bool new_neg;
        if (s0neg == s1neg) {
            // s0 - q*s1 where both share a sign: result sign may flip.
            if (compare(s0, qs) >= 0) {
                new_s = sub(s0, qs);
                new_neg = s0neg;
            } else {
                new_s = sub(qs, s0);
                new_neg = !s0neg;
            }
        } else {
            new_s = add(s0, qs);
            new_neg = s0neg;
        }
        s0 = s1;
        s0neg = s1neg;
        s1 = new_s;
        s1neg = new_neg;
    }
    if (r0 != BigInt(1))
        return {}; // not invertible
    if (s0neg)
        return sub(m, mod(s0, m));
    return mod(s0, m);
}

// ---------------------------------------------------------------------
// Montgomery context
// ---------------------------------------------------------------------

Montgomery::Montgomery(const BigInt &m) : modulus(m), nlimbs(m.limbs.size())
{
    if (!m.isOdd())
        throw std::domain_error("Montgomery: modulus must be odd");
    // nprime = -m^-1 mod 2^32 via Newton iteration on the low limb.
    uint32_t m0 = m.limbs[0];
    uint32_t inv = m0; // 3-bit correct seed for odd m0
    for (int i = 0; i < 5; i++)
        inv *= 2 - m0 * inv;
    nprime = static_cast<uint32_t>(0u - inv);
    // R^2 mod m by one division (which counts no multiplies).
    r2 = BigInt::mod(BigInt::shl(BigInt(1), 64 * nlimbs), modulus);
}

BigInt
Montgomery::mulRedc(const BigInt &a, const BigInt &b) const
{
    // CIOS (coarsely integrated operand scanning) Montgomery multiply.
    std::vector<uint32_t> t(nlimbs + 2, 0);
    for (size_t i = 0; i < nlimbs; i++) {
        uint32_t ai = i < a.limbs.size() ? a.limbs[i] : 0;
        // t += ai * b
        uint64_t carry = 0;
        for (size_t j = 0; j < nlimbs; j++) {
            uint32_t bj = j < b.limbs.size() ? b.limbs[j] : 0;
            uint64_t cur = static_cast<uint64_t>(ai) * bj + t[j] + carry;
            g_mul_ops++;
            t[j] = static_cast<uint32_t>(cur);
            carry = cur >> 32;
        }
        uint64_t cur = static_cast<uint64_t>(t[nlimbs]) + carry;
        t[nlimbs] = static_cast<uint32_t>(cur);
        t[nlimbs + 1] = static_cast<uint32_t>(cur >> 32);
        // u = t[0] * nprime mod 2^32; t += u * m; t >>= 32
        uint32_t u = t[0] * nprime;
        carry = 0;
        for (size_t j = 0; j < nlimbs; j++) {
            uint64_t c2 = static_cast<uint64_t>(u) * modulus.limbs[j]
                + t[j] + carry;
            g_mul_ops++;
            t[j] = static_cast<uint32_t>(c2);
            carry = c2 >> 32;
        }
        cur = static_cast<uint64_t>(t[nlimbs]) + carry;
        t[nlimbs] = static_cast<uint32_t>(cur);
        t[nlimbs + 1] += static_cast<uint32_t>(cur >> 32);
        // shift right one limb
        for (size_t j = 0; j < nlimbs + 1; j++)
            t[j] = t[j + 1];
        t[nlimbs + 1] = 0;
    }
    BigInt r;
    r.limbs.assign(t.begin(), t.begin() + nlimbs + 1);
    r.trim();
    if (BigInt::compare(r, modulus) >= 0)
        r = BigInt::sub(r, modulus);
    return r;
}

BigInt
Montgomery::toDomain(const BigInt &a) const
{
    return mulRedc(BigInt::mod(a, modulus), r2);
}

BigInt
Montgomery::fromDomain(const BigInt &a) const
{
    return mulRedc(a, BigInt(1));
}

BigInt
Montgomery::modExp(const BigInt &base, const BigInt &exp) const
{
    BigInt result = toDomain(BigInt(1));
    BigInt b = toDomain(base);
    for (unsigned i = exp.bitLength(); i-- > 0;) {
        result = mulRedc(result, result);
        if (exp.bit(i))
            result = mulRedc(result, b);
    }
    return fromDomain(result);
}

} // namespace cryptarch::util
