#include "src/util/random.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sam_parallel.h"  // internal::BernoulliThreshold

namespace skypref {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(99);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (int count : counts) {
    EXPECT_NEAR(static_cast<double>(count), n / 10.0, 5.0 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextInt(4, 4), 4);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_FALSE(rng.NextBernoulli(-1.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_TRUE(rng.NextBernoulli(2.0));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(SplitSeedTest, DeterministicAndStreamSensitive) {
  EXPECT_EQ(SplitSeed(42, 0), SplitSeed(42, 0));
  EXPECT_NE(SplitSeed(42, 0), SplitSeed(42, 1));
  EXPECT_NE(SplitSeed(42, 0), SplitSeed(43, 0));
  // Consecutive stream indices are the block engine's use case; a run of
  // them must produce distinct seeds even for adversarial base seeds.
  for (std::uint64_t base : {std::uint64_t{0}, std::uint64_t{42},
                             ~std::uint64_t{0}}) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t stream = 0; stream < 1024; ++stream) {
      seen.insert(SplitSeed(base, stream));
    }
    EXPECT_EQ(seen.size(), 1024u) << "base=" << base;
  }
}

TEST(SplitSeedTest, DerivedStreamsAreUncorrelated) {
  // The block engine seeds block b with SplitSeed(seed, b) and relies on
  // the derived Xoshiro streams being independent. Check pairwise: for
  // adjacent blocks, the bitwise agreement of the two streams' outputs
  // should look like fair coin flips, and each stream's mean should be
  // near 1/2. 64 bits x 256 draws = 16384 coin flips per pair; a fair
  // coin stays within 4 sigma (= 4 * sqrt(16384)/2 = 256) of 8192.
  const int kDraws = 256;
  const int kBits = 64 * kDraws;
  for (std::uint64_t base : {std::uint64_t{7}, std::uint64_t{2013}}) {
    for (std::uint64_t block = 0; block < 8; ++block) {
      Rng a(SplitSeed(base, block));
      Rng b(SplitSeed(base, block + 1));
      int agreements = 0;
      double mean_a = 0.0;
      for (int i = 0; i < kDraws; ++i) {
        std::uint64_t ua = a.NextUint64();
        std::uint64_t ub = b.NextUint64();
        agreements += 64 - std::popcount(ua ^ ub);
        mean_a += std::ldexp(static_cast<double>(ua), -64);
      }
      EXPECT_NEAR(agreements, kBits / 2, 4 * 64) << "base=" << base
                                                 << " block=" << block;
      EXPECT_NEAR(mean_a / kDraws, 0.5, 0.08) << "base=" << base
                                              << " block=" << block;
    }
  }
}

TEST(SplitSeedTest, ChiSquareOverDerivedStreamsIsUniform) {
  // Pool the low byte of the first draw of 4096 derived streams into 16
  // buckets. Chi-square with 15 degrees of freedom: the 99.9th
  // percentile is ~37.7, so a healthy splitter stays below 40.
  std::vector<int> counts(16, 0);
  const int kStreams = 4096;
  for (std::uint64_t stream = 0; stream < kStreams; ++stream) {
    Rng rng(SplitSeed(0xdecafbadULL, stream));
    ++counts[rng.NextUint64() & 15];
  }
  const double expected = kStreams / 16.0;
  double chi2 = 0.0;
  for (int count : counts) {
    double diff = count - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 40.0);
}

TEST(NextBernoulliWordTest, EndpointsAreExactAndFree) {
  // p = 0 and the p >= 1 sentinel must be decided without consuming any
  // randomness, exactly like Rng::NextBernoulli at both endpoints.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng a(11), twin(11);
  EXPECT_EQ(NextBernoulliWord(a, 0), 0ULL);
  EXPECT_EQ(NextBernoulliWord(a, kMax), ~0ULL);
  EXPECT_EQ(a.NextUint64(), twin.NextUint64());  // stream untouched
}

TEST(NextBernoulliWordTest, DyadicThresholdConsumesOneWord) {
  // p = 1/2 (threshold 2^63) has a single significant bit: every lane is
  // decided by the first revealed bit, so exactly one PRNG word is
  // consumed — the best case that block-local preference models (their
  // cross-block pairs are uniform coin flips) hit constantly.
  Rng a(13), twin(13);
  const std::uint64_t half = internal::BernoulliThreshold(0.5);
  const std::uint64_t word = NextBernoulliWord(a, half);
  const std::uint64_t consumed = twin.NextUint64();
  EXPECT_EQ(word, ~consumed);  // U < 2^63 iff the top... all bits decide
  EXPECT_EQ(a.NextUint64(), twin.NextUint64());  // exactly one word used
}

TEST(NextBernoulliWordTest, PerBitChiSquareMatchesThreshold) {
  // Bit w of each word must be Bernoulli(p) for EVERY lane w, not just on
  // average: pool N draws per lane and form the 64-term chi-square
  // statistic sum_w (k_w - Np)^2 / (Np(1-p)). Healthy lanes stay under
  // the 99.99th percentile of chi^2_64 (~118) with margin.
  const int kDraws = 8192;
  for (double p : {0.3, 0.5, 0.75, 0.9}) {
    const std::uint64_t threshold = internal::BernoulliThreshold(p);
    Rng rng(0xb17b17ULL + static_cast<std::uint64_t>(p * 1000));
    std::vector<int> per_bit(64, 0);
    for (int i = 0; i < kDraws; ++i) {
      std::uint64_t w = NextBernoulliWord(rng, threshold);
      while (w != 0) {
        ++per_bit[static_cast<std::size_t>(std::countr_zero(w))];
        w &= w - 1;
      }
    }
    const double expected = kDraws * p;
    const double var = kDraws * p * (1.0 - p);
    double chi2 = 0.0;
    for (int k : per_bit) {
      const double diff = k - expected;
      chi2 += diff * diff / var;
    }
    EXPECT_LT(chi2, 125.0) << "p=" << p;
  }
}

TEST(NextBernoulliWordTest, CrossBitPairsAreUncorrelated) {
  // Lanes share the revealed PRNG words, so independence across bits is
  // the property to earn, not assume: for lane pairs, the joint-hit
  // frequency must match p^2. 5-sigma band on a binomial count.
  const int kDraws = 16384;
  const double p = 0.6;
  const std::uint64_t threshold = internal::BernoulliThreshold(p);
  Rng rng(0xc0a7e5ULL);
  const int pairs[][2] = {{0, 1}, {7, 8}, {31, 32}, {62, 63}, {0, 63}};
  int joint[5] = {0};
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t w = NextBernoulliWord(rng, threshold);
    for (int j = 0; j < 5; ++j) {
      if (((w >> pairs[j][0]) & 1ULL) != 0 && ((w >> pairs[j][1]) & 1ULL) != 0) {
        ++joint[j];
      }
    }
  }
  const double expected = kDraws * p * p;
  const double sigma = std::sqrt(kDraws * p * p * (1.0 - p * p));
  for (int j = 0; j < 5; ++j) {
    EXPECT_NEAR(joint[j], expected, 5.0 * sigma)
        << "pair (" << pairs[j][0] << "," << pairs[j][1] << ")";
  }
}

TEST(NextBernoulliWordTest, FullPrecisionThresholdMeanMatches) {
  // A non-dyadic p exercises the deep expansion (many significant
  // threshold bits); the mean bit density must still match p.
  const double p = 1.0 / 3.0;
  const std::uint64_t threshold = internal::BernoulliThreshold(p);
  Rng rng(0x3333ULL);
  const int kDraws = 20000;
  std::int64_t hits = 0;
  for (int i = 0; i < kDraws; ++i) {
    hits += std::popcount(NextBernoulliWord(rng, threshold));
  }
  const double n = 64.0 * kDraws;
  EXPECT_NEAR(static_cast<double>(hits) / n, p,
              5.0 * std::sqrt(p * (1.0 - p) / n));
}

TEST(NextTernaryWordsTest, MasksAreMutuallyExclusive) {
  Rng rng(0x7e7e7eULL);
  const std::uint64_t lo = internal::BernoulliThreshold(0.4);
  const std::uint64_t hi = internal::BernoulliThreshold(0.7);
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t lo_mask = 0, hi_mask = 0;
    NextTernaryWords(rng, lo, hi, &lo_mask, &hi_mask);
    EXPECT_EQ(lo_mask & hi_mask, 0ULL);
  }
}

TEST(NextTernaryWordsTest, FrequenciesMatchBothCuts) {
  // Pr(lo) = 0.4, Pr(hi) = 0.3, Pr(incomparable) = 0.3, from one shared
  // uniform per lane — all three frequencies must land on target.
  Rng rng(0x7a7a7aULL);
  const std::uint64_t lo = internal::BernoulliThreshold(0.4);
  const std::uint64_t hi = internal::BernoulliThreshold(0.7);
  const int kDraws = 20000;
  std::int64_t lo_hits = 0, hi_hits = 0;
  for (int i = 0; i < kDraws; ++i) {
    std::uint64_t lo_mask = 0, hi_mask = 0;
    NextTernaryWords(rng, lo, hi, &lo_mask, &hi_mask);
    lo_hits += std::popcount(lo_mask);
    hi_hits += std::popcount(hi_mask);
  }
  const double n = 64.0 * kDraws;
  EXPECT_NEAR(static_cast<double>(lo_hits) / n, 0.4,
              5.0 * std::sqrt(0.4 * 0.6 / n));
  EXPECT_NEAR(static_cast<double>(hi_hits) / n, 0.3,
              5.0 * std::sqrt(0.3 * 0.7 / n));
}

TEST(NextTernaryWordsTest, SentinelsAreExactAndFree) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng a(29), twin(29);
  std::uint64_t lo_mask = 0, hi_mask = 0;
  // Pr(lo) >= 1: always lo, no draw.
  NextTernaryWords(a, kMax, kMax, &lo_mask, &hi_mask);
  EXPECT_EQ(lo_mask, ~0ULL);
  EXPECT_EQ(hi_mask, 0ULL);
  // Pr(lo) = 0, Pr(lo) + Pr(hi) >= 1: always hi, no draw.
  NextTernaryWords(a, 0, kMax, &lo_mask, &hi_mask);
  EXPECT_EQ(lo_mask, 0ULL);
  EXPECT_EQ(hi_mask, ~0ULL);
  // Both cuts 0: always incomparable, no draw.
  NextTernaryWords(a, 0, 0, &lo_mask, &hi_mask);
  EXPECT_EQ(lo_mask, 0ULL);
  EXPECT_EQ(hi_mask, 0ULL);
  EXPECT_EQ(a.NextUint64(), twin.NextUint64());  // stream untouched
}

TEST(NextBernoulliWords8Test, LanesMatchForkedScalarGenerators) {
  // OctoRng lane l is seeded from the l-th Fork() of the parent, and a
  // dyadic threshold 2^63 consumes exactly one word per lane with mask
  // ~word — so the wide call must reproduce eight scalar Rng streams.
  Rng parent(91), twin(91);
  OctoRng oct(parent);
  std::uint64_t out[OctoRng::kLanes];
  NextBernoulliWords8(oct, 1ULL << 63, out);
  for (int l = 0; l < OctoRng::kLanes; ++l) {
    Rng lane(twin.Fork());
    EXPECT_EQ(out[l], ~lane.NextUint64()) << "lane " << l;
  }
}

TEST(NextBernoulliWords8Test, DispatchMatchesScalarReference) {
  // Whatever kernel the CPU dispatch picks must be word-for-word equal
  // to the portable reference — the ISA is speed, never semantics.
  Rng pa(17), pb(17);
  OctoRng a(pa), b(pb);
  std::uint64_t da[OctoRng::kLanes], db[OctoRng::kLanes];
  Rng thresholds(3);
  for (int i = 0; i < 512; ++i) {
    const std::uint64_t threshold = thresholds.NextUint64();
    NextBernoulliWords8(a, threshold, da);
    internal::NextBernoulliWords8Scalar(b, threshold, db);
    for (int l = 0; l < OctoRng::kLanes; ++l) {
      ASSERT_EQ(da[l], db[l]) << "threshold " << threshold << " lane " << l;
    }
  }
}

TEST(NextBernoulliWords8Test, SentinelsAreExactAndFree) {
  Rng pa(41), twin(41);
  OctoRng oct(pa);
  OctoRng copy(twin);
  std::uint64_t out[OctoRng::kLanes];
  NextBernoulliWords8(oct, 0, out);
  for (std::uint64_t w : out) EXPECT_EQ(w, 0ULL);
  NextBernoulliWords8(oct, std::numeric_limits<std::uint64_t>::max(), out);
  for (std::uint64_t w : out) EXPECT_EQ(w, ~0ULL);
  // Neither sentinel advanced any lane.
  for (int w = 0; w < 4; ++w) {
    for (int l = 0; l < OctoRng::kLanes; ++l) {
      EXPECT_EQ(oct.s[w][l], copy.s[w][l]);
    }
  }
}

TEST(NextBernoulliWords8Test, FullPrecisionMeanMatchesThreshold) {
  const std::uint64_t threshold = internal::BernoulliThreshold(1.0 / 3.0);
  Rng parent(2024);
  OctoRng oct(parent);
  std::uint64_t out[OctoRng::kLanes];
  const int kCalls = 8192;
  std::int64_t hits = 0;
  for (int i = 0; i < kCalls; ++i) {
    NextBernoulliWords8(oct, threshold, out);
    for (std::uint64_t w : out) hits += std::popcount(w);
  }
  const double n = 64.0 * OctoRng::kLanes * kCalls;
  const double p = 1.0 / 3.0;
  const double sigma = std::sqrt(n * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(hits), n * p, 5.0 * sigma);
}

/// Cut pairs (cut_lo <= cut_hi) covering every branch of the ternary
/// round rule: random full-precision cuts, dyadic cuts, equal cuts, and
/// the 0 / UINT64_MAX sentinels on either side.
std::vector<std::pair<std::uint64_t, std::uint64_t>> TernaryCutPairs() {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cuts;
  Rng rng(0x7e51ULL);
  for (int i = 0; i < 400; ++i) {
    std::uint64_t a = rng.NextUint64();
    std::uint64_t b = rng.NextUint64();
    if (a > b) std::swap(a, b);
    cuts.emplace_back(a, b);
    cuts.emplace_back(a, a);
    // Short cuts decide after a few rounds, long ones run deep.
    cuts.emplace_back(a >> 40 << 40, b);
    cuts.emplace_back(a, b >> 58 << 58);
  }
  for (int i = 0; i < 64; ++i) {
    for (int j = i; j < 64; j += 7) {
      cuts.emplace_back(1ULL << i, 1ULL << j);
    }
    cuts.emplace_back(0, 1ULL << i);
    cuts.emplace_back(1ULL << i, kMax);
  }
  for (std::uint64_t lo : {std::uint64_t{0}, kMax}) {
    for (std::uint64_t hi : {std::uint64_t{0}, std::uint64_t{1} << 63, kMax}) {
      if (lo <= hi) cuts.emplace_back(lo, hi);
    }
  }
  return cuts;
}

bool SameState(const OctoRng& a, const OctoRng& b) {
  for (int w = 0; w < 4; ++w) {
    for (int l = 0; l < OctoRng::kLanes; ++l) {
      if (a.s[w][l] != b.s[w][l]) return false;
    }
  }
  return true;
}

TEST(NextTernaryWords8Test, DispatchMatchesScalarReference) {
  // Whatever kernel the CPU dispatch picks must equal the portable
  // reference word for word — masks AND the generator state afterwards,
  // so the two kernels consume the stream identically call after call.
  Rng pa(23), pb(23);
  OctoRng a(pa), b(pb);
  std::uint64_t lo_a[OctoRng::kLanes], hi_a[OctoRng::kLanes];
  std::uint64_t lo_b[OctoRng::kLanes], hi_b[OctoRng::kLanes];
  for (const auto& [cut_lo, cut_hi] : TernaryCutPairs()) {
    NextTernaryWords8(a, cut_lo, cut_hi, lo_a, hi_a);
    internal::NextTernaryWords8Scalar(b, cut_lo, cut_hi, lo_b, hi_b);
    for (int l = 0; l < OctoRng::kLanes; ++l) {
      ASSERT_EQ(lo_a[l], lo_b[l]) << cut_lo << "/" << cut_hi << " lane " << l;
      ASSERT_EQ(hi_a[l], hi_b[l]) << cut_lo << "/" << cut_hi << " lane " << l;
    }
    ASSERT_TRUE(SameState(a, b)) << cut_lo << "/" << cut_hi;
  }
}

TEST(NextTernaryWords8Test, FirstCallLanesMatchScalarOracle) {
  // Lane l of a fresh OctoRng is the l-th Fork() of its parent; running
  // the lanes in lockstep may draw past a lane's own stopping round but
  // must never change its masks, so NextTernaryWords on the forked Rng
  // is the per-lane oracle.
  std::uint64_t seed = 1;
  for (const auto& [cut_lo, cut_hi] : TernaryCutPairs()) {
    Rng parent(seed), twin(seed);
    ++seed;
    OctoRng oct(parent);
    std::uint64_t lo[OctoRng::kLanes], hi[OctoRng::kLanes];
    NextTernaryWords8(oct, cut_lo, cut_hi, lo, hi);
    for (int l = 0; l < OctoRng::kLanes; ++l) {
      Rng lane(twin.Fork());
      std::uint64_t want_lo = 0, want_hi = 0;
      NextTernaryWords(lane, cut_lo, cut_hi, &want_lo, &want_hi);
      ASSERT_EQ(lo[l], want_lo) << cut_lo << "/" << cut_hi << " lane " << l;
      ASSERT_EQ(hi[l], want_hi) << cut_lo << "/" << cut_hi << " lane " << l;
    }
  }
}

TEST(NextTernaryWords8Test, MasksAreMutuallyExclusive) {
  Rng parent(0x7e7e7fULL);
  OctoRng oct(parent);
  std::uint64_t lo[OctoRng::kLanes], hi[OctoRng::kLanes];
  for (const auto& [cut_lo, cut_hi] : TernaryCutPairs()) {
    NextTernaryWords8(oct, cut_lo, cut_hi, lo, hi);
    for (int l = 0; l < OctoRng::kLanes; ++l) {
      ASSERT_EQ(lo[l] & hi[l], 0ULL) << cut_lo << "/" << cut_hi;
    }
  }
}

TEST(NextTernaryWords8Test, FrequenciesMatchBothCuts) {
  // Pr(lo) = 0.4, Pr(hi) = 0.3, Pr(incomparable) = 0.3 across all 512
  // worlds of every call.
  Rng parent(0x7a7a7bULL);
  OctoRng oct(parent);
  const std::uint64_t cut_lo = internal::BernoulliThreshold(0.4);
  const std::uint64_t cut_hi = internal::BernoulliThreshold(0.7);
  const int kCalls = 4096;
  std::int64_t lo_hits = 0, hi_hits = 0;
  std::uint64_t lo[OctoRng::kLanes], hi[OctoRng::kLanes];
  for (int i = 0; i < kCalls; ++i) {
    NextTernaryWords8(oct, cut_lo, cut_hi, lo, hi);
    for (int l = 0; l < OctoRng::kLanes; ++l) {
      lo_hits += std::popcount(lo[l]);
      hi_hits += std::popcount(hi[l]);
    }
  }
  const double n = 64.0 * OctoRng::kLanes * kCalls;
  EXPECT_NEAR(static_cast<double>(lo_hits) / n, 0.4,
              5.0 * std::sqrt(0.4 * 0.6 / n));
  EXPECT_NEAR(static_cast<double>(hi_hits) / n, 0.3,
              5.0 * std::sqrt(0.3 * 0.7 / n));
}

TEST(NextTernaryWords8Test, SentinelsAreExactAndFree) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng pa(31), twin(31);
  OctoRng oct(pa);
  const OctoRng copy(twin);
  std::uint64_t lo[OctoRng::kLanes], hi[OctoRng::kLanes];
  // Pr(lo) >= 1: always lo.
  NextTernaryWords8(oct, kMax, kMax, lo, hi);
  for (int l = 0; l < OctoRng::kLanes; ++l) {
    EXPECT_EQ(lo[l], ~0ULL);
    EXPECT_EQ(hi[l], 0ULL);
  }
  // Pr(lo) = 0, Pr(lo) + Pr(hi) >= 1: always hi.
  NextTernaryWords8(oct, 0, kMax, lo, hi);
  for (int l = 0; l < OctoRng::kLanes; ++l) {
    EXPECT_EQ(lo[l], 0ULL);
    EXPECT_EQ(hi[l], ~0ULL);
  }
  // Both cuts 0: always incomparable.
  NextTernaryWords8(oct, 0, 0, lo, hi);
  for (int l = 0; l < OctoRng::kLanes; ++l) {
    EXPECT_EQ(lo[l], 0ULL);
    EXPECT_EQ(hi[l], 0ULL);
  }
  EXPECT_TRUE(SameState(oct, copy));  // no lane advanced
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(55);
  Rng child_a(parent.Fork());
  Rng child_b(parent.Fork());
  std::uint64_t first_a = child_a.NextUint64();
  std::uint64_t first_b = child_b.NextUint64();
  // Different children diverge, and forks are deterministic per parent.
  EXPECT_NE(first_a, first_b);
  Rng parent2(55);
  EXPECT_EQ(Rng(parent2.Fork()).NextUint64(), first_a);
  EXPECT_EQ(Rng(parent2.Fork()).NextUint64(), first_b);
}

}  // namespace
}  // namespace skypref
