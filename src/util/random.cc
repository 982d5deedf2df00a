#include "src/util/random.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SKYPREF_HAVE_AVX512_KERNELS 1
#include <immintrin.h>
#endif

namespace skypref {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 mixer(seed);
  for (auto& word : state_) word = mixer.Next();
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  // Lemire-style rejection: discard draws from the biased tail.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  while (true) {
    std::uint64_t draw = NextUint64();
    if (draw >= threshold) return draw % bound;
  }
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {
    // Full 64-bit range requested.
    return static_cast<std::int64_t>(NextUint64());
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   NextBounded(span));
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::uint64_t Rng::Fork() { return NextUint64() ^ 0x6a09e667f3bcc909ULL; }

namespace internal {

namespace {

constexpr std::uint64_t kMaxCut = std::numeric_limits<std::uint64_t>::max();

/// One xoshiro256++ step of lane \p l; identical arithmetic to
/// Rng::NextUint64 over the lane's state column.
inline std::uint64_t StepLane(OctoRng& o, int l) {
  const std::uint64_t r = std::rotl(o.s[0][l] + o.s[3][l], 23) + o.s[0][l];
  const std::uint64_t t = o.s[1][l] << 17;
  o.s[2][l] ^= o.s[0][l];
  o.s[3][l] ^= o.s[1][l];
  o.s[1][l] ^= o.s[2][l];
  o.s[0][l] ^= o.s[3][l];
  o.s[2][l] ^= t;
  o.s[3][l] = std::rotl(o.s[3][l], 45);
  return r;
}

/// Lowest bit position at which a ternary cut still decides lanes by
/// comparison; 64 for the cuts that decide every lane up front (0: never
/// below, UINT64_MAX: always below).
inline int LowestDecidingBit(std::uint64_t cut) {
  return (cut == 0 || cut == kMaxCut) ? 64 : std::countr_zero(cut);
}

}  // namespace

void NextBernoulliWords8Scalar(OctoRng& o, std::uint64_t threshold,
                               std::uint64_t* out) {
  constexpr int kLanes = OctoRng::kLanes;
  if (threshold == 0) {
    for (int l = 0; l < kLanes; ++l) out[l] = 0;
    return;
  }
  if (threshold == std::numeric_limits<std::uint64_t>::max()) {
    for (int l = 0; l < kLanes; ++l) out[l] = ~0ULL;
    return;
  }
  std::uint64_t below[kLanes] = {};
  std::uint64_t undecided[kLanes];
  for (int l = 0; l < kLanes; ++l) undecided[l] = ~0ULL;
  const int lowest = std::countr_zero(threshold);
  for (int k = 63; k >= lowest; --k) {
    const std::uint64_t bit = (threshold >> k) & 1ULL;
    const std::uint64_t take = 0 - bit;   // cut bit 1: 0-bit decides below
    const std::uint64_t keep = bit - 1;   // cut bit 0: 1-bit decides above
    std::uint64_t any = 0;
    for (int l = 0; l < kLanes; ++l) {
      const std::uint64_t r = StepLane(o, l);
      below[l] |= undecided[l] & ~r & take;
      undecided[l] &= r ^ keep;
      any |= undecided[l];
    }
    if (any == 0) break;
  }
  for (int l = 0; l < kLanes; ++l) out[l] = below[l];
}

void NextTernaryWords8Scalar(OctoRng& o, std::uint64_t cut_lo,
                             std::uint64_t cut_hi, std::uint64_t* lo_out,
                             std::uint64_t* hi_out) {
  constexpr int kLanes = OctoRng::kLanes;
  if (cut_lo == kMaxCut) {  // "always lo": no randomness needed
    for (int l = 0; l < kLanes; ++l) {
      lo_out[l] = ~0ULL;
      hi_out[l] = 0;
    }
    return;
  }
  const int low_lo = LowestDecidingBit(cut_lo);
  const int low_hi = LowestDecidingBit(cut_hi);
  std::uint64_t below_lo[kLanes] = {};
  std::uint64_t below_hi[kLanes];
  std::uint64_t und_lo[kLanes];
  std::uint64_t und_hi[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    below_hi[l] = cut_hi == kMaxCut ? ~0ULL : 0;
    und_lo[l] = ~0ULL;
    und_hi[l] = ~0ULL;
  }
  for (int k = 63; k >= 0; --k) {
    // The round rule: a cut with no set bit at or below k decides its
    // tied lanes as "not below", so they leave the undecided set first.
    std::uint64_t any = 0;
    for (int l = 0; l < kLanes; ++l) {
      if (k < low_lo) und_lo[l] = 0;
      if (k < low_hi) und_hi[l] = 0;
      any |= und_lo[l] | und_hi[l];
    }
    if (any == 0) break;
    const std::uint64_t bit_lo = (cut_lo >> k) & 1ULL;
    const std::uint64_t bit_hi = (cut_hi >> k) & 1ULL;
    for (int l = 0; l < kLanes; ++l) {
      const std::uint64_t r = StepLane(o, l);
      below_lo[l] |= und_lo[l] & ~r & (0 - bit_lo);
      und_lo[l] &= r ^ (bit_lo - 1);
      below_hi[l] |= und_hi[l] & ~r & (0 - bit_hi);
      und_hi[l] &= r ^ (bit_hi - 1);
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    lo_out[l] = below_lo[l];
    hi_out[l] = below_hi[l] & ~below_lo[l];
  }
}

#if SKYPREF_HAVE_AVX512_KERNELS
// GCC's avx512 intrinsic headers build _mm512_set1_epi64 on top of an
// explicitly undefined vector, which -Wmaybe-uninitialized misreads.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) void NextBernoulliWords8Avx512(
    OctoRng& o, std::uint64_t threshold, std::uint64_t* out) {
  if (threshold == 0) {
    for (int l = 0; l < OctoRng::kLanes; ++l) out[l] = 0;
    return;
  }
  if (threshold == std::numeric_limits<std::uint64_t>::max()) {
    for (int l = 0; l < OctoRng::kLanes; ++l) out[l] = ~0ULL;
    return;
  }
  __m512i s0 = _mm512_load_si512(o.s[0]);
  __m512i s1 = _mm512_load_si512(o.s[1]);
  __m512i s2 = _mm512_load_si512(o.s[2]);
  __m512i s3 = _mm512_load_si512(o.s[3]);
  __m512i below = _mm512_setzero_si512();
  __m512i undecided = _mm512_set1_epi64(-1);
  const int lowest = std::countr_zero(threshold);
  for (int k = 63; k >= lowest; --k) {
    // xoshiro256++ step, all eight lanes at once.
    const __m512i r = _mm512_add_epi64(
        _mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_rol_epi64(s3, 45);
    const std::uint64_t bit = (threshold >> k) & 1ULL;
    const __m512i take = _mm512_set1_epi64(
        static_cast<long long>(0 - bit));
    const __m512i keep = _mm512_set1_epi64(
        static_cast<long long>(bit - 1));
    // below |= undecided & ~r & take, one three-input ternlog
    // (imm 0x08 = ~a & b & c) plus the accumulate OR.
    below = _mm512_or_si512(
        below, _mm512_ternarylogic_epi64(r, undecided, take, 0x08));
    undecided = _mm512_and_si512(undecided, _mm512_xor_si512(r, keep));
    if (_mm512_test_epi64_mask(undecided, undecided) == 0) break;
  }
  _mm512_store_si512(o.s[0], s0);
  _mm512_store_si512(o.s[1], s1);
  _mm512_store_si512(o.s[2], s2);
  _mm512_store_si512(o.s[3], s3);
  _mm512_storeu_si512(out, below);
}

__attribute__((target("avx512f"))) void NextTernaryWords8Avx512(
    OctoRng& o, std::uint64_t cut_lo, std::uint64_t cut_hi,
    std::uint64_t* lo_out, std::uint64_t* hi_out) {
  if (cut_lo == kMaxCut) {
    for (int l = 0; l < OctoRng::kLanes; ++l) {
      lo_out[l] = ~0ULL;
      hi_out[l] = 0;
    }
    return;
  }
  const int low_lo = LowestDecidingBit(cut_lo);
  const int low_hi = LowestDecidingBit(cut_hi);
  __m512i s0 = _mm512_load_si512(o.s[0]);
  __m512i s1 = _mm512_load_si512(o.s[1]);
  __m512i s2 = _mm512_load_si512(o.s[2]);
  __m512i s3 = _mm512_load_si512(o.s[3]);
  __m512i below_lo = _mm512_setzero_si512();
  __m512i below_hi = _mm512_set1_epi64(cut_hi == kMaxCut ? -1 : 0);
  __m512i und_lo = _mm512_set1_epi64(-1);
  __m512i und_hi = _mm512_set1_epi64(-1);
  for (int k = 63; k >= 0; --k) {
    // Same round rule as the scalar reference.
    if (k < low_lo) und_lo = _mm512_setzero_si512();
    if (k < low_hi) und_hi = _mm512_setzero_si512();
    const __m512i und = _mm512_or_si512(und_lo, und_hi);
    if (_mm512_test_epi64_mask(und, und) == 0) break;
    const __m512i r = _mm512_add_epi64(
        _mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_rol_epi64(s3, 45);
    const std::uint64_t bit_lo = (cut_lo >> k) & 1ULL;
    const std::uint64_t bit_hi = (cut_hi >> k) & 1ULL;
    below_lo = _mm512_or_si512(
        below_lo,
        _mm512_ternarylogic_epi64(
            r, und_lo, _mm512_set1_epi64(static_cast<long long>(0 - bit_lo)),
            0x08));
    und_lo = _mm512_and_si512(
        und_lo, _mm512_xor_si512(r, _mm512_set1_epi64(
                                        static_cast<long long>(bit_lo - 1))));
    below_hi = _mm512_or_si512(
        below_hi,
        _mm512_ternarylogic_epi64(
            r, und_hi, _mm512_set1_epi64(static_cast<long long>(0 - bit_hi)),
            0x08));
    und_hi = _mm512_and_si512(
        und_hi, _mm512_xor_si512(r, _mm512_set1_epi64(
                                        static_cast<long long>(bit_hi - 1))));
  }
  _mm512_store_si512(o.s[0], s0);
  _mm512_store_si512(o.s[1], s1);
  _mm512_store_si512(o.s[2], s2);
  _mm512_store_si512(o.s[3], s3);
  _mm512_storeu_si512(lo_out, below_lo);
  _mm512_storeu_si512(hi_out, _mm512_andnot_si512(below_lo, below_hi));
}
#pragma GCC diagnostic pop
#endif  // SKYPREF_HAVE_AVX512_KERNELS

}  // namespace internal

#if SKYPREF_HAVE_AVX512_KERNELS
namespace {
bool HaveAvx512() {
  static const bool have = __builtin_cpu_supports("avx512f") != 0;
  return have;
}
}  // namespace
#endif

void NextBernoulliWords8(OctoRng& o, std::uint64_t threshold,
                         std::uint64_t* out) {
#if SKYPREF_HAVE_AVX512_KERNELS
  if (HaveAvx512()) {
    internal::NextBernoulliWords8Avx512(o, threshold, out);
    return;
  }
#endif
  internal::NextBernoulliWords8Scalar(o, threshold, out);
}

void NextTernaryWords8(OctoRng& o, std::uint64_t cut_lo, std::uint64_t cut_hi,
                       std::uint64_t* lo_out, std::uint64_t* hi_out) {
#if SKYPREF_HAVE_AVX512_KERNELS
  if (HaveAvx512()) {
    internal::NextTernaryWords8Avx512(o, cut_lo, cut_hi, lo_out, hi_out);
    return;
  }
#endif
  internal::NextTernaryWords8Scalar(o, cut_lo, cut_hi, lo_out, hi_out);
}

}  // namespace skypref
