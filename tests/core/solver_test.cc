#include "src/core/solver.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/core/dominance.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/workload/nursery.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::Figure1Dataset;
using skypref::testing::RandomSmallDataset;
using skypref::testing::UnanimousHalfRational;

TEST(SolverTest, CreateValidatesDataset) {
  TablePreferenceModel model;
  Dataset empty(2);
  EXPECT_EQ(SkylineSolver::Create(empty, model).status().code(),
            StatusCode::kFailedPrecondition);
  Dataset dup(1);
  dup.Append({1}).CheckOK();
  dup.Append({1}).CheckOK();
  EXPECT_EQ(SkylineSolver::Create(dup, model).status().code(),
            StatusCode::kFailedPrecondition);
  Dataset ok = Figure1Dataset();
  EXPECT_TRUE(SkylineSolver::Create(ok, model).ok());
}

TEST(SolverTest, DetAndDetPlusAgreeOnExample1) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolverOptions plain;
  plain.preprocess = false;
  SolverOptions plus;
  plus.preprocess = true;
  EXPECT_DOUBLE_EQ(solver.Exact(0, plain).value(), 3.0 / 16.0);
  EXPECT_DOUBLE_EQ(solver.Exact(0, plus).value(), 3.0 / 16.0);
}

TEST(SolverTest, DetPlusStatsShowAbsorptionAndPartition) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats stats;
  SolverOptions options;
  options.preprocess = true;
  ASSERT_TRUE(solver.Exact(0, options, &stats).ok());
  EXPECT_EQ(stats.candidates, 4u);
  EXPECT_EQ(stats.after_absorption, 3u);   // Q1 absorbed
  EXPECT_EQ(stats.groups, 3u);             // three singletons
  EXPECT_EQ(stats.largest_group, 1u);
  EXPECT_EQ(stats.subsets_visited, 3u);    // one subset per singleton
}

TEST(SolverTest, DetStatsWithoutPreprocess) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats stats;
  SolverOptions options;
  options.preprocess = false;
  options.exact.prune_zero = false;
  ASSERT_TRUE(solver.Exact(0, options, &stats).ok());
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.largest_group, 4u);
  EXPECT_EQ(stats.subsets_visited, 15u);
}

TEST(SolverTest, SamAndSamPlusConvergeToTruth) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  for (bool preprocess : {false, true}) {
    SolverOptions options;
    options.preprocess = preprocess;
    options.monte_carlo.samples = 100000;
    options.monte_carlo.seed = 3;
    double estimate = solver.MonteCarlo(0, options).value();
    EXPECT_NEAR(estimate, 3.0 / 16.0, 0.01) << "preprocess=" << preprocess;
  }
}

TEST(SolverTest, SamPlusHandlesSingletonGroupsExactly) {
  // After preprocessing, Example 1 is all singletons: Sam+ becomes fully
  // exact and needs zero samples.
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats stats;
  SolverOptions options;
  options.preprocess = true;
  double estimate = solver.MonteCarlo(0, options, &stats).value();
  EXPECT_DOUBLE_EQ(estimate, 3.0 / 16.0);
  EXPECT_EQ(stats.samples_drawn, 0u);
}

TEST(SolverTest, IndependentBaselineAccessor) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  EXPECT_DOUBLE_EQ(solver.Independent(0).value(), 9.0 / 64.0);
}

TEST(SolverTest, AllTargetsDetEqualsDetPlus) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    Dataset data = RandomSmallDataset(seed, 10, 3, 4);
    TablePreferenceModel model;
    auto solver = SkylineSolver::Create(data, model).value();
    SolverOptions plain;
    plain.preprocess = false;
    SolverOptions plus;
    plus.preprocess = true;
    for (ObjectId target = 0; target < data.size(); ++target) {
      double det = solver.Exact(target, plain).value();
      double det_plus = solver.Exact(target, plus).value();
      EXPECT_NEAR(det, det_plus, 1e-12)
          << "seed=" << seed << " target=" << target;
    }
  }
}

TEST(SolverTest, RationalHelperWithAndWithoutPreprocess) {
  Dataset data = Example1Dataset();
  RationalPreferenceModel model = UnanimousHalfRational(data);
  Rational plain =
      ExactSkylineProbabilityRational(data, 0, model, false).value();
  Rational plus =
      ExactSkylineProbabilityRational(data, 0, model, true).value();
  EXPECT_EQ(plain, plus);
  EXPECT_EQ(plain, Rational::FromRatio(3, 16).value());
}

TEST(SolverTest, OutOfRangeTargets) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  EXPECT_EQ(solver.Exact(3).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(solver.MonteCarlo(3).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(solver.Independent(3).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(
      ExactSkylineProbabilityRational(data, 3, RationalPreferenceModel())
          .status()
          .code(),
      StatusCode::kOutOfRange);
}

TEST(SolverTest, ExactBudgetPropagatesFromOptions) {
  Dataset data = RandomSmallDataset(7, 14, 2, 4);
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  SolverOptions options;
  options.preprocess = false;
  options.exact.max_subsets = 10;
  options.exact.prune_zero = false;
  EXPECT_EQ(solver.Exact(0, options).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SolverTest, OneDimensionalDataIsLinearViaPartition) {
  // The paper notes d = 1 is computable in O(n): all values are distinct,
  // so dominance events are independent. Det+ recovers this for free —
  // partition yields only singleton groups, one subset each.
  Dataset data(1);
  for (ValueId v = 0; v < 40; ++v) data.Append({v}).CheckOK();
  HashedPreferenceModel model(5,
                              HashedPreferenceModel::Style::kTotalUniform);
  auto solver = SkylineSolver::Create(data, model).value();
  SolveStats stats;
  double sky = solver.Exact(0, {}, &stats).value();
  EXPECT_EQ(stats.groups, 39u);
  EXPECT_EQ(stats.largest_group, 1u);
  EXPECT_EQ(stats.subsets_visited, 39u);  // one per candidate: linear
  // And it equals the independent product, which IS exact here.
  EXPECT_NEAR(sky, solver.Independent(0).value(), 1e-12);
}

TEST(SolverTest, SingleObjectDatasetIsAlwaysSkyline) {
  Dataset data(2);
  data.Append({3, 4}).CheckOK();
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  EXPECT_DOUBLE_EQ(solver.Exact(0).value(), 1.0);
  EXPECT_DOUBLE_EQ(solver.MonteCarlo(0).value(), 1.0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameStats(const SolveStats& a, const SolveStats& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.after_absorption, b.after_absorption);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.largest_group, b.largest_group);
  EXPECT_EQ(a.group_sizes, b.group_sizes);
  EXPECT_EQ(a.subsets_visited, b.subsets_visited);
  EXPECT_EQ(a.samples_drawn, b.samples_drawn);
  EXPECT_EQ(a.pair_draws, b.pair_draws);
}

/// SkylineSolver::Exact (Det+) spelled out through the free functions:
/// the PlanTarget overload that indexes the dataset per call, then one
/// ExactSkylineProbability per group, multiplied in partition order.
double ComposedExact(const Dataset& data, const PreferenceModel& model,
                     ObjectId target, const SolverOptions& options,
                     SolveStats* stats) {
  DoubleOracle oracle(model);
  const auto groups = PlanTarget(data, target, /*preprocess=*/true,
                                 NullPairTestOf(oracle), stats);
  double result = 1.0;
  for (const auto& group : groups) {
    ExactStats exact;
    result *= ExactSkylineProbability(data, target, group, oracle,
                                      options.exact, &exact)
                  .value();
    stats->subsets_visited += exact.subsets_visited;
  }
  return ClampProbability(result);
}

/// SkylineSolver::MonteCarlo (preprocessing on, a fixed sample count, the
/// serial engine) spelled out the same way: singleton groups in closed
/// form first, then the sampled groups on seeds forked in group order.
double ComposedMonteCarlo(const Dataset& data, const PreferenceModel& model,
                          ObjectId target, const SolverOptions& options,
                          SolveStats* stats) {
  const auto groups = PlanTarget(data, target, /*preprocess=*/true,
                                 NullPairTestOf(DoubleOracle(model)), stats);
  double result = 1.0;
  for (const auto& group : groups) {
    if (group.size() == 1) {
      result *= 1.0 - DominanceProbability(data, group[0], target, model);
    }
  }
  Rng seeder(options.monte_carlo.seed);
  MonteCarloOptions per_group = options.monte_carlo;
  for (const auto& group : groups) {
    if (group.size() == 1) continue;
    per_group.seed = seeder.Fork();
    const MonteCarloResult mc =
        MonteCarloSkylineProbability(data, target, group, model, per_group)
            .value();
    stats->samples_drawn += mc.samples;
    stats->pair_draws += mc.pair_draws;
    result *= mc.estimate;
  }
  return ClampProbability(result);
}

/// Checks \p solver's Det+ and Sam+, answers and SolveStats, bit for bit
/// against the composed free functions on \p targets.
void ExpectSolverMatchesComposition(const SkylineSolver& solver,
                                    const std::vector<ObjectId>& targets) {
  const Dataset& data = solver.data();
  const PreferenceModel& model = solver.model();
  SolverOptions sam;
  sam.monte_carlo.samples = 512;
  sam.monte_carlo.seed = 17;
  for (ObjectId t : targets) {
    SCOPED_TRACE(::testing::Message() << "target " << t);
    SolveStats solved;
    SolveStats composed;
    const double value = solver.Exact(t, {}, &solved).value();
    EXPECT_TRUE(SameBits(value, ComposedExact(data, model, t, {}, &composed)));
    ExpectSameStats(solved, composed);
    solved = composed = SolveStats();
    const double estimate = solver.MonteCarlo(t, sam, &solved).value();
    EXPECT_TRUE(SameBits(estimate,
                         ComposedMonteCarlo(data, model, t, sam, &composed)));
    ExpectSameStats(solved, composed);
  }
}

std::vector<ObjectId> SampleTargets(std::size_t n, std::size_t count,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectId> targets;
  for (std::size_t i = 0; i < count; ++i) targets.push_back(rng.NextBounded(n));
  return targets;
}

TEST(SolverIndexTest, MatchesTheFreeCompositionOnNursery) {
  for (std::size_t d : {4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "d=" << d);
    const NurseryVariant nursery = GenerateNurseryProjection(d).value();
    HashedPreferenceModel model(2013,
                                HashedPreferenceModel::Style::kTotalUniform);
    const auto solver = SkylineSolver::Create(nursery.dataset, model).value();
    ExpectSolverMatchesComposition(
        solver, SampleTargets(nursery.dataset.size(), 12, 40 + d));
  }
}

TEST(SolverIndexTest, MatchesTheFreeCompositionWithASparseValueId) {
  // Value 3 of dimension 0 becomes 1,000,000: the index is sized by the
  // largest id, and its lookups and null-prune walk must skip the gap.
  const Dataset dense = RandomSmallDataset(61, 24, 3, 4);
  Dataset data(3);
  for (ObjectId i = 0; i < dense.size(); ++i) {
    std::vector<ValueId> row(dense.object(i).begin(), dense.object(i).end());
    if (row[0] == 3) row[0] = 1000000;
    data.Append(row).CheckOK();
  }
  ASSERT_EQ(data.value_bound(0), 1000001u);
  for (auto style : {HashedPreferenceModel::Style::kTotalUniform,
                     HashedPreferenceModel::Style::kCertainOrder}) {
    HashedPreferenceModel model(7, style);
    const auto solver = SkylineSolver::Create(data, model).value();
    ExpectSolverMatchesComposition(solver, SampleTargets(data.size(), 8, 61));
  }
}

TEST(SolverIndexTest, CopiedAndMovedSolversAnswerIdentically) {
  const NurseryVariant nursery = GenerateNurseryProjection(4).value();
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);
  auto original = SkylineSolver::Create(nursery.dataset, model).value();
  std::vector<double> expected;
  for (ObjectId t = 0; t < nursery.dataset.size(); ++t) {
    expected.push_back(original.Exact(t).value());
  }
  const SkylineSolver copy = original;
  const SkylineSolver moved = std::move(original);
  for (ObjectId t = 0; t < nursery.dataset.size(); ++t) {
    EXPECT_TRUE(SameBits(copy.Exact(t).value(), expected[t])) << t;
    EXPECT_TRUE(SameBits(moved.Exact(t).value(), expected[t])) << t;
  }
}

TEST(SolverIndexTest, ConcurrentExactCallsMatchSerial) {
  const NurseryVariant nursery = GenerateNurseryProjection(5).value();
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);
  const auto solver = SkylineSolver::Create(nursery.dataset, model).value();
  const std::size_t n = nursery.dataset.size();
  std::vector<double> serial(n);
  for (ObjectId t = 0; t < n; ++t) serial[t] = solver.Exact(t).value();
  std::vector<double> concurrent(n, -1.0);
  ThreadPool pool(4);
  pool.ParallelFor(n, [&](std::size_t t) {
    concurrent[t] = solver.Exact(t).value();
  });
  for (ObjectId t = 0; t < n; ++t) {
    EXPECT_TRUE(SameBits(concurrent[t], serial[t])) << t;
  }
}

}  // namespace
}  // namespace skypref
