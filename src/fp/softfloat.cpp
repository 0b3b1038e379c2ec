#include "fp/softfloat.hpp"

#include <bit>
#include <utility>

#include "common/error.hpp"

namespace hjsvd::fp {
namespace {

using u64 = std::uint64_t;
__extension__ typedef unsigned __int128 u128;

constexpr u64 kSignMask = 0x8000'0000'0000'0000ULL;
constexpr u64 kFracMask = 0x000F'FFFF'FFFF'FFFFULL;
constexpr int kFracBits = 52;
constexpr int kExpMax = 0x7FF;
constexpr u64 kQuietBit = 1ULL << 51;
constexpr u64 kCanonicalNan = 0x7FF8'0000'0000'0000ULL;
constexpr u64 kInf = static_cast<u64>(kExpMax) << kFracBits;

int exp_of(u64 a) { return static_cast<int>((a >> kFracBits) & kExpMax); }
u64 frac_of(u64 a) { return a & kFracMask; }
u64 sign_of(u64 a) { return a & kSignMask; }

bool is_nan(u64 a) { return exp_of(a) == kExpMax && frac_of(a) != 0; }
bool is_inf(u64 a) { return exp_of(a) == kExpMax && frac_of(a) == 0; }
bool is_zero(u64 a) { return (a & ~kSignMask) == 0; }

/// Returns an input NaN, quieted; or the canonical qNaN for invalid ops.
u64 propagate_nan(u64 a, u64 b) {
  if (is_nan(a)) return a | kQuietBit;
  if (is_nan(b)) return b | kQuietBit;
  return kCanonicalNan;
}

/// x >> n with all shifted-out bits ORed ("jammed") into the result LSB.
u64 shift_right_jam64(u64 x, int n) {
  if (n <= 0) return x;
  if (n >= 64) return x != 0 ? 1 : 0;
  return (x >> n) | ((x << (64 - n)) != 0 ? 1 : 0);
}

u64 shift_right_jam128(u128 x, int n) {
  HJSVD_ASSERT(n > 0 && n < 128, "jam128 shift out of range");
  const u128 shifted = x >> n;
  const bool lost = (x << (128 - n)) != 0;
  HJSVD_ASSERT((shifted >> 64) == 0, "jam128 result must fit in 64 bits");
  return static_cast<u64>(shifted) | (lost ? 1 : 0);
}

/// Rounds (to nearest, ties to even) and packs a result.
///
/// Working convention: the value represented is z * 2^(be - 1085).  When the
/// result is a normal number, z has its leading 1 at bit 62 and `be` becomes
/// the biased exponent; the bottom 10 bits of z are rounding bits below the
/// 53-bit significand.  Callers may pass be == 1 with an unnormalized z
/// (leading 1 below bit 62), which encodes a subnormal.
u64 round_pack(u64 sign, int be, u64 z) {
  if (be <= 0) {
    // Denormalize into the be == 1 frame; value is preserved:
    // z * 2^(be-1085) == (z >> (1-be)) * 2^(1-1085), modulo sticky jamming.
    z = shift_right_jam64(z, 1 - be);
    be = 1;
  }
  const u64 round_bits = z & 0x3FF;
  z += 0x200;
  if (round_bits == 0x200) z &= ~(1ULL << 10);  // tie: round to even
  u64 sig53 = z >> 10;
  if (sig53 >= (1ULL << 53)) {  // rounding carried out of the significand
    sig53 >>= 1;
    ++be;
  }
  if (sig53 == 0) return sign;  // rounded to (signed) zero
  if ((sig53 >> kFracBits) == 0) {
    // No implicit bit: subnormal.  Only representable in the be == 1 frame
    // (exponent field 0 encodes frac * 2^(1-1075)).
    HJSVD_ASSERT(be == 1, "unnormalized significand outside subnormal frame");
    return sign | sig53;
  }
  if (be >= kExpMax) return sign | kInf;  // overflow
  return sign | (static_cast<u64>(be) << kFracBits) | (sig53 & kFracMask);
}

/// Unpacks a finite, non-zero operand into (effective biased exponent,
/// significand with implicit bit, normalized into [2^52, 2^53)).  Subnormals
/// get an effective exponent below 1.
void unpack_normalize(u64 a, int& exp, u64& sig) {
  exp = exp_of(a);
  sig = frac_of(a);
  if (exp == 0) {
    const int shift = std::countl_zero(sig) - 11;
    sig <<= shift;
    exp = 1 - shift;
  } else {
    sig |= 1ULL << kFracBits;
  }
}

/// Unpacks into the working frame used by add/sub: significand shifted so a
/// normal number's implicit bit sits at position 62; subnormals keep their
/// natural (unnormalized) position with effective exponent 1.
void unpack_working(u64 a, int& exp, u64& z) {
  exp = exp_of(a);
  z = frac_of(a);
  if (exp != 0) {
    z |= 1ULL << kFracBits;
  } else {
    exp = 1;
  }
  z <<= 10;
}

/// Magnitude comparison of finite operands (ignores sign).
bool mag_lt(u64 a, u64 b) { return (a & ~kSignMask) < (b & ~kSignMask); }

/// Magnitude addition: |a| + |b| with the given result sign.
u64 add_mags(u64 a, u64 b, u64 sign) {
  int ea, eb;
  u64 za, zb;
  unpack_working(a, ea, za);
  unpack_working(b, eb, zb);
  if (ea < eb) {
    std::swap(ea, eb);
    std::swap(za, zb);
  }
  zb = shift_right_jam64(zb, ea - eb);
  u64 sum = za + zb;
  int be = ea;
  if (sum & (1ULL << 63)) {
    sum = shift_right_jam64(sum, 1);
    ++be;
  }
  // sum may be unnormalized only when both inputs were subnormal (be == 1),
  // which round_pack encodes directly as a subnormal.
  return round_pack(sign, be, sum);
}

/// Magnitude subtraction: |a| - |b| where |a| > |b|; carries a's sign.
u64 sub_mags(u64 a, u64 b) {
  if (mag_lt(a, b)) std::swap(a, b);
  if ((a & ~kSignMask) == (b & ~kSignMask)) return 0;  // exact zero is +0
  const u64 sign = sign_of(a);
  int ea, eb;
  u64 za, zb;
  unpack_working(a, ea, za);
  unpack_working(b, eb, zb);
  zb = shift_right_jam64(zb, ea - eb);
  u64 diff = za - zb;
  int be = ea;
  HJSVD_ASSERT(diff != 0, "exact cancellation handled by caller");
  // Normalize (leading 1 to bit 62), but never below the subnormal frame.
  const int lz = std::countl_zero(diff) - 1;
  const int shift = lz < (be - 1) ? lz : (be - 1);
  diff <<= shift;
  be -= shift;
  return round_pack(sign, be, diff);
}

}  // namespace

bool f64_is_nan(u64 a) { return is_nan(a); }
bool f64_is_inf(u64 a) { return is_inf(a); }
bool f64_is_zero(u64 a) { return is_zero(a); }
bool f64_is_subnormal(u64 a) { return exp_of(a) == 0 && frac_of(a) != 0; }

u64 f64_add(u64 a, u64 b) {
  if (is_nan(a) || is_nan(b)) return propagate_nan(a, b);
  if (is_inf(a)) {
    if (is_inf(b) && sign_of(a) != sign_of(b)) return kCanonicalNan;  // inf-inf
    return a;
  }
  if (is_inf(b)) return b;
  if (is_zero(a) && is_zero(b)) {
    // (+0)+(+0)=+0, (-0)+(-0)=-0, mixed signs give +0 under RNE.
    return sign_of(a) & sign_of(b);
  }
  if (is_zero(a)) return b;
  if (is_zero(b)) return a;
  if (sign_of(a) == sign_of(b)) return add_mags(a, b, sign_of(a));
  return sub_mags(a, b);
}

u64 f64_sub(u64 a, u64 b) { return f64_add(a, b ^ kSignMask); }

u64 f64_mul(u64 a, u64 b) {
  if (is_nan(a) || is_nan(b)) return propagate_nan(a, b);
  const u64 sign = sign_of(a) ^ sign_of(b);
  if (is_inf(a) || is_inf(b)) {
    if (is_zero(a) || is_zero(b)) return kCanonicalNan;  // inf * 0
    return sign | kInf;
  }
  if (is_zero(a) || is_zero(b)) return sign;
  int ea, eb;
  u64 sa, sb;
  unpack_normalize(a, ea, sa);
  unpack_normalize(b, eb, sb);
  const u128 p = static_cast<u128>(sa) * sb;  // in [2^104, 2^106)
  int be;
  u64 z;
  if ((p >> 105) != 0) {
    z = shift_right_jam128(p, 43);
    be = ea + eb - 1022;
  } else {
    z = shift_right_jam128(p, 42);
    be = ea + eb - 1023;
  }
  return round_pack(sign, be, z);
}

u64 f64_div(u64 a, u64 b) {
  if (is_nan(a) || is_nan(b)) return propagate_nan(a, b);
  const u64 sign = sign_of(a) ^ sign_of(b);
  if (is_inf(a)) {
    if (is_inf(b)) return kCanonicalNan;  // inf / inf
    return sign | kInf;
  }
  if (is_inf(b)) return sign;  // finite / inf = signed 0
  if (is_zero(b)) {
    if (is_zero(a)) return kCanonicalNan;  // 0 / 0
    return sign | kInf;                    // x / 0 = inf
  }
  if (is_zero(a)) return sign;
  int ea, eb;
  u64 sa, sb;
  unpack_normalize(a, ea, sa);
  unpack_normalize(b, eb, sb);
  int be;
  u128 n;
  if (sa >= sb) {
    n = static_cast<u128>(sa) << 62;  // quotient in [2^62, 2^63)
    be = ea - eb + 1023;
  } else {
    n = static_cast<u128>(sa) << 63;  // quotient in (2^62, 2^63)
    be = ea - eb + 1022;
  }
  u64 q = static_cast<u64>(n / sb);
  const u128 r = n - static_cast<u128>(q) * sb;
  if (r != 0) q |= 1;  // sticky
  HJSVD_ASSERT((q >> 62) == 1, "quotient must be normalized at bit 62");
  return round_pack(sign, be, q);
}

u64 f64_sqrt(u64 a) {
  if (is_nan(a)) return a | kQuietBit;
  if (is_zero(a)) return a;              // sqrt(+-0) = +-0
  if (sign_of(a)) return kCanonicalNan;  // sqrt of negative
  if (is_inf(a)) return a;
  int ea;
  u64 sa;
  unpack_normalize(a, ea, sa);
  // value = sa * 2^t with t = ea - 1075; force t even so sqrt halves it.
  int t = ea - 1075;
  u128 x = sa;
  if (t & 1) {
    x <<= 1;
    t -= 1;
  }
  // S = floor(sqrt(x << 72)): x<<72 in [2^124, 2^126) => S in [2^62, 2^63),
  // and sqrt(value) = S * 2^(t/2 - 36) exactly up to the remainder.
  x <<= 72;
  u128 rem = 0, root = 0;
  for (int shift = 126; shift >= 0; shift -= 2) {
    rem = (rem << 2) | ((x >> shift) & 0x3);
    root <<= 1;
    const u128 trial = (root << 1) | 1;
    if (rem >= trial) {
      rem -= trial;
      root |= 1;
    }
  }
  u64 z = static_cast<u64>(root);
  HJSVD_ASSERT((z >> 62) == 1, "sqrt significand must be normalized");
  if (rem != 0) z |= 1;  // sticky
  // round_pack expects z * 2^(be - 1085); here value = z * 2^(t/2 - 36).
  return round_pack(0, t / 2 - 36 + 1085, z);
}

}  // namespace hjsvd::fp
