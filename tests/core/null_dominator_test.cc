/// Conformance of the null-dominator prune: a candidate with a differing
/// dimension where Pr(candidate value <= target value) is exactly zero
/// has Pr(e_i) = 0 and is dropped before absorption. Contract under
/// test, on instances whose models carry exact zeros:
///
///  * the batch exact solver, SkylineSolver::Exact and ParallelExact
///    agree bit for bit at 0/1/2/8 threads;
///  * every answer is within 1e-12 of the rational referee run WITHOUT
///    preprocessing (so without the prune);
///  * pruning before absorption leaves the same survivor list as pruning
///    after it;
///  * a target whose candidates are all null gets exactly 1.0;
///  * the rational referee tests zeros in exact arithmetic, so a positive
///    probability that rounds to 0.0 as a double is not pruned there.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/absorption.h"
#include "src/core/parallel.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "src/util/hash.h"
#include "src/workload/block_zipf_generator.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::RandomSmallDataset;

/// An instance with exact zeros: the double model the production solvers
/// run on, and a rational mirror whose Pr(a < b) are exactly the doubles
/// the solvers see, for the referee.
struct ZeroInstance {
  std::string name;
  Dataset data{1};
  std::unique_ptr<PreferenceModel> base;  // owned base of a wrapper model
  std::unique_ptr<PreferenceModel> model;
  RationalPreferenceModel referee;
};

/// Exact rational copy of \p model over the value pairs used in \p data.
/// Pr(b < a) only matters to validity here, so it is clipped to keep the
/// pair's total at most 1 in exact arithmetic.
RationalPreferenceModel Mirror(const Dataset& data,
                               const PreferenceModel& model) {
  RationalPreferenceModel mirror;
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    std::vector<bool> used(data.value_bound(j), false);
    for (ObjectId id = 0; id < data.size(); ++id) used[data.value(id, j)] = true;
    for (ValueId a = 0; a < used.size(); ++a) {
      for (ValueId b = a + 1; b < used.size(); ++b) {
        if (!used[a] || !used[b]) continue;
        const PrefPair pair = model.GetPair(j, a, b);
        Rational less = Rational::FromDouble(pair.less).value();
        Rational greater = Rational::FromDouble(pair.greater).value();
        if (Rational(1) < less + greater) greater = Rational(1) - less;
        mirror.Set(j, a, b, less, greater).CheckOK();
      }
    }
  }
  return mirror;
}

ZeroInstance BlockZipfInstance() {
  ZeroInstance inst;
  inst.name = "block-zipf";
  BlockZipfOptions gen;
  gen.objects = 48;
  gen.dimensions = 3;
  gen.block_size = 6;
  gen.values_per_block = 3;
  gen.seed = 5;
  inst.data = GenerateBlockZipf(gen).value();
  // Within a block, seeded sixteenths (small denominators keep the
  // rational referee fast); across blocks the wrapper's exact zeros.
  auto base = std::make_unique<TablePreferenceModel>();
  for (DimensionId j = 0; j < gen.dimensions; ++j) {
    for (ValueId a = 0; a < inst.data.value_bound(j); ++a) {
      for (ValueId b = a + 1; b / 3 == a / 3; ++b) {
        const double k = static_cast<double>(
            1 + HashMix((j << 16) ^ (a << 8) ^ b ^ 0xb10cULL) % 15);
        base->Set(j, a, b, k / 16.0, (16.0 - k) / 16.0).CheckOK();
      }
    }
  }
  inst.base = std::move(base);
  inst.model = std::make_unique<BlockLocalPreferenceModel>(*inst.base, 3);
  inst.referee = Mirror(inst.data, *inst.model);
  return inst;
}

ZeroInstance CertainOrderInstance() {
  ZeroInstance inst;
  inst.name = "certain-order";
  inst.data = RandomSmallDataset(83, 12, 3, 4);
  inst.model = std::make_unique<HashedPreferenceModel>(
      29, HashedPreferenceModel::Style::kCertainOrder);
  inst.referee = Mirror(inst.data, *inst.model);
  return inst;
}

/// A table model where a seeded third of the pairs have p = 0 in one
/// orientation, the rest mixed (including incomparable mass).
ZeroInstance ZeroTableInstance() {
  ZeroInstance inst;
  inst.name = "zero-table";
  inst.data = RandomSmallDataset(89, 14, 3, 4);
  auto table = std::make_unique<TablePreferenceModel>();
  for (DimensionId j = 0; j < 3; ++j) {
    for (ValueId a = 0; a < 4; ++a) {
      for (ValueId b = a + 1; b < 4; ++b) {
        const std::uint64_t mix = HashMix((j << 16) ^ (a << 8) ^ b ^ 0x5eedULL);
        switch (mix % 3) {
          case 0: table->Set(j, a, b, 0.0, 0.75).CheckOK(); break;
          case 1: table->Set(j, a, b, 0.625, 0.0).CheckOK(); break;
          default: table->Set(j, a, b, 0.25, 0.5).CheckOK(); break;
        }
      }
    }
  }
  inst.model = std::move(table);
  inst.referee = Mirror(inst.data, *inst.model);
  return inst;
}

/// Target O = object 0. A and B share nothing, but the null candidate C
/// shares a value with each, so without the prune {A, B, C} is one
/// group; with it, {A} and {B} solve independently. C is null through a
/// value only it uses (dim 3), and nobody absorbs anybody.
ZeroInstance NullLinkInstance() {
  ZeroInstance inst;
  inst.name = "null-link";
  inst.data = Dataset(4);
  inst.data.Append({0, 0, 0, 0}).CheckOK();  // O
  inst.data.Append({1, 1, 0, 0}).CheckOK();  // A
  inst.data.Append({0, 2, 2, 0}).CheckOK();  // B
  inst.data.Append({1, 0, 2, 3}).CheckOK();  // C: null on dim 3
  inst.data.Append({2, 3, 1, 1}).CheckOK();  // an unrelated candidate
  auto table = std::make_unique<TablePreferenceModel>(PrefPair{0.375, 0.5});
  table->Set(3, 3, 0, 0.0, 1.0).CheckOK();  // Pr(3 < 0) = 0 on dim 3
  inst.model = std::move(table);
  inst.referee = Mirror(inst.data, *inst.model);
  return inst;
}

std::vector<ZeroInstance> Instances() {
  std::vector<ZeroInstance> out;
  out.push_back(BlockZipfInstance());
  out.push_back(CertainOrderInstance());
  out.push_back(ZeroTableInstance());
  out.push_back(NullLinkInstance());
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True iff \p id is a null dominator of \p target under \p model —
/// the per-candidate definition, independent of the posting-list code.
bool IsNull(const Dataset& data, ObjectId target, ObjectId id,
            const PreferenceModel& model) {
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    const ValueId v = data.value(id, j);
    const ValueId o = data.value(target, j);
    if (v != o && model.LessEq(j, v, o) == 0.0) return true;
  }
  return false;
}

std::vector<ObjectId> AllBut(const Dataset& data, ObjectId target) {
  std::vector<ObjectId> ids;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (i != target) ids.push_back(i);
  }
  return ids;
}

TEST(NullDominatorTest, EnginesAgreeBitwiseAtEveryThreadCount) {
  for (const ZeroInstance& inst : Instances()) {
    SCOPED_TRACE(inst.name);
    const std::size_t n = inst.data.size();
    auto solver = SkylineSolver::Create(inst.data, *inst.model).value();
    std::vector<double> serial(n);
    for (ObjectId t = 0; t < n; ++t) serial[t] = solver.Exact(t).value();
    for (std::size_t threads : {0u, 1u, 2u, 8u}) {
      ThreadPool pool(threads);
      auto batch =
          BatchExactSkylineProbabilities(inst.data, *inst.model, pool).value();
      for (ObjectId t = 0; t < n; ++t) {
        const double parallel =
            ParallelExactSkylineProbability(inst.data, t, *inst.model, pool)
                .value();
        EXPECT_TRUE(SameBits(batch[t], serial[t]))
            << "batch, threads " << threads << " target " << t;
        EXPECT_TRUE(SameBits(parallel, serial[t]))
            << "parallel, threads " << threads << " target " << t;
      }
    }
  }
}

TEST(NullDominatorTest, MatchesRationalRefereeWithoutPreprocessing) {
  for (const ZeroInstance& inst : Instances()) {
    SCOPED_TRACE(inst.name);
    auto solver = SkylineSolver::Create(inst.data, *inst.model).value();
    for (ObjectId t = 0; t < inst.data.size(); ++t) {
      const double truth = ExactSkylineProbabilityRational(
                               inst.data, t, inst.referee,
                               /*preprocess=*/false)
                               .value()
                               .ToDouble();
      EXPECT_NEAR(solver.Exact(t).value(), truth, 1e-12) << "target " << t;
      // The referee's own preprocessing (exact zero test) changes nothing.
      EXPECT_EQ(ExactSkylineProbabilityRational(inst.data, t, inst.referee,
                                                /*preprocess=*/true)
                    .value(),
                ExactSkylineProbabilityRational(inst.data, t, inst.referee,
                                                /*preprocess=*/false)
                    .value())
          << "target " << t;
    }
  }
}

TEST(NullDominatorTest, PruneCommutesWithAbsorption) {
  for (const ZeroInstance& inst : Instances()) {
    SCOPED_TRACE(inst.name);
    const NullPairTest null_test = NullPairTestOf(DoubleOracle(*inst.model));
    const ValuePostings postings(inst.data);
    for (ObjectId t = 0; t < inst.data.size(); ++t) {
      // Prune after absorption: the model-free filter, then the
      // per-candidate definition.
      std::vector<ObjectId> after;
      for (ObjectId id : AbsorbCandidates(inst.data, t, AllBut(inst.data, t))) {
        if (!IsNull(inst.data, t, id, *inst.model)) after.push_back(id);
      }
      // Prune before absorption: both entry points.
      AbsorptionStats stats;
      EXPECT_EQ(FilterCandidates(inst.data, t, AllBut(inst.data, t),
                                 null_test, &stats),
                after)
          << "target " << t;
      EXPECT_EQ(FilterAllCandidatesIndexed(inst.data, t, postings, null_test),
                after)
          << "target " << t;
      std::size_t nulls = 0;
      for (ObjectId id : AllBut(inst.data, t)) {
        if (IsNull(inst.data, t, id, *inst.model)) ++nulls;
      }
      EXPECT_EQ(stats.pruned, nulls) << "target " << t;
      EXPECT_EQ(stats.input_candidates, inst.data.size() - 1);
      EXPECT_EQ(stats.pruned + stats.absorbed + after.size(),
                stats.input_candidates);
    }
  }
}

TEST(NullDominatorTest, NullLinkSplitsTheGroup) {
  const ZeroInstance inst = NullLinkInstance();
  const std::vector<ObjectId> kept =
      AbsorbCandidates(inst.data, 0, AllBut(inst.data, 0));
  ASSERT_EQ(kept.size(), 4u);  // nobody is absorbed
  EXPECT_EQ(PartitionCandidates(inst.data, 0, kept).size(), 2u);  // ABC, D
  SolveStats stats;
  PlanTarget(inst.data, 0, /*preprocess=*/true,
             NullPairTestOf(DoubleOracle(*inst.model)), &stats);
  EXPECT_EQ(stats.pruned, 1u);
  EXPECT_EQ(stats.after_absorption, 3u);
  EXPECT_EQ(stats.groups, 3u);  // A, B, D
}

TEST(NullDominatorTest, AllNullTargetIsExactlyOne) {
  // Value 0 is certainly preferred to everything on both dimensions, so
  // every candidate of target (0, 0) is null.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 0}).CheckOK();
  data.Append({0, 2}).CheckOK();
  data.Append({1, 1}).CheckOK();
  data.Append({2, 2}).CheckOK();
  TablePreferenceModel model;
  RationalPreferenceModel referee;
  for (DimensionId j = 0; j < 2; ++j) {
    for (ValueId v = 1; v < 3; ++v) {
      model.Set(j, v, 0, 0.0, 1.0).CheckOK();
      referee.Set(j, v, 0, Rational(0), Rational(1)).CheckOK();
    }
  }
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats stats;
  EXPECT_EQ(solver.Exact(0, {}, &stats).value(), 1.0);
  EXPECT_EQ(stats.pruned, 4u);
  EXPECT_EQ(stats.groups, 0u);
  for (std::size_t threads : {0u, 1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(BatchExactSkylineProbabilities(data, model, pool).value()[0],
              1.0);
    EXPECT_EQ(ParallelExactSkylineProbability(data, 0, model, pool).value(),
              1.0);
  }
  EXPECT_EQ(ExactSkylineProbabilityRational(data, 0, referee, true).value(),
            Rational(1));
}

TEST(NullDominatorTest, RationalPathKeepsProbabilitiesThatRoundToZero) {
  // Pr(1 < 0) = 2^-1100 is positive but rounds to 0.0 as a double: the
  // double solvers may prune the candidate (it is null in their numeric
  // type), the rational referee must not.
  Dataset data(1);
  data.Append({0}).CheckOK();
  data.Append({1}).CheckOK();
  const Rational tiny(BigInt(1), BigInt::PowerOfTwo(1100));
  RationalPreferenceModel model;
  model.Set(0, 1, 0, tiny, Rational(0)).CheckOK();
  ASSERT_EQ(model.LessEq(0, 1, 0), 0.0);

  EXPECT_FALSE(NullPairTestOf(RationalOracle(model))(0, 1, 0));
  EXPECT_TRUE(NullPairTestOf(DoubleOracle(model))(0, 1, 0));
  const Rational expected = Rational(1) - tiny;
  EXPECT_EQ(ExactSkylineProbabilityRational(data, 0, model, true).value(),
            expected);
  EXPECT_EQ(ExactSkylineProbabilityRational(data, 0, model, false).value(),
            expected);
  auto solver = SkylineSolver::Create(data, model).value();
  EXPECT_EQ(solver.Exact(0).value(), 1.0);
}

TEST(NullDominatorTest, BatchStatsCountPrunedCandidatesLikeSam) {
  for (const ZeroInstance& inst : Instances()) {
    SCOPED_TRACE(inst.name);
    const std::size_t n = inst.data.size();
    // What the Sam batch plan used to drop: model-free absorption, then
    // the null survivors.
    std::size_t dropped_before = 0;
    const ValuePostings postings(inst.data);
    for (ObjectId t = 0; t < n; ++t) {
      std::size_t kept = 0;
      for (ObjectId id : AbsorbAllCandidatesIndexed(inst.data, t, postings)) {
        if (!IsNull(inst.data, t, id, *inst.model)) ++kept;
      }
      dropped_before += (n - 1) - kept;
    }
    ThreadPool pool(2);
    BatchExactStats exact;
    ASSERT_TRUE(
        BatchExactSkylineProbabilities(inst.data, *inst.model, pool, {}, &exact)
            .ok());
    SolverOptions sam_options;
    sam_options.monte_carlo.samples = 256;
    BatchSamStats sam;
    ASSERT_TRUE(BatchMonteCarloSkylineProbabilities(inst.data, *inst.model,
                                                    pool, sam_options, &sam)
                    .ok());
    EXPECT_EQ(exact.absorbed + exact.pruned_candidates, dropped_before);
    EXPECT_EQ(sam.absorbed + sam.pruned_candidates, dropped_before);
    EXPECT_EQ(exact.pruned_candidates, sam.pruned_candidates);
    EXPECT_EQ(exact.absorbed, sam.absorbed);
    EXPECT_EQ(exact.groups, sam.groups);
  }
}

}  // namespace
}  // namespace skypref
