#include "src/core/lineage_dp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "src/core/exact.h"
#include "src/core/parallel.h"
#include "src/core/solver.h"
#include "src/model/preference_generator.h"
#include "src/util/thread_pool.h"
#include "src/workload/block_zipf_generator.h"
#include "src/workload/uniform_generator.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::Figure1Dataset;
using skypref::testing::RandomSmallDataset;

std::vector<ObjectId> AllBut(const Dataset& data, ObjectId target) {
  std::vector<ObjectId> ids;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (i != target) ids.push_back(i);
  }
  return ids;
}

TEST(LineageDpTest, PaperGoldenValues) {
  Dataset fig1 = Figure1Dataset();
  Dataset ex1 = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_DOUBLE_EQ(
      LineageExactSkylineProbability(fig1, 0, AllBut(fig1, 0), model).value(),
      0.5);
  EXPECT_DOUBLE_EQ(
      LineageExactSkylineProbability(ex1, 0, AllBut(ex1, 0), model).value(),
      3.0 / 16.0);
}

TEST(LineageDpTest, MatchesInclusionExclusionOnRandomInstances) {
  for (std::uint64_t seed = 1001; seed < 1021; ++seed) {
    Dataset data = RandomSmallDataset(seed, 11, 3, 4);
    TablePreferenceModel model;
    for (ObjectId target = 0; target < 3; ++target) {
      double subset_dfs =
          ExactSkylineProbability(data, target, model).value();
      double lineage = LineageExactSkylineProbability(
                           data, target, AllBut(data, target), model)
                           .value();
      EXPECT_NEAR(lineage, subset_dfs, 1e-12)
          << "seed=" << seed << " target=" << target;
    }
  }
}

TEST(LineageDpTest, PreprocessedVariantMatchesDetPlus) {
  Dataset data = RandomSmallDataset(31, 14, 3, 4);
  TablePreferenceModel model;
  auto solver = SkylineSolver::Create(data, model).value();
  for (ObjectId target = 0; target < 4; ++target) {
    EXPECT_NEAR(
        LineageExactWithPreprocessing(data, target, model).value(),
        solver.Exact(target).value(), 1e-12);
  }
}

TEST(LineageDpTest, SolvesUniformFiftyWhereSubsetDfsCannot) {
  // n=50, d=5, 10 values/dim: 2^49 subsets for Algorithm 1; at most 45
  // shared variables for the lineage DP. This must finish fast and agree
  // with a Monte-Carlo cross-check.
  UniformOptions gen;
  gen.objects = 50;
  gen.dimensions = 5;
  gen.values_per_dimension = 10;
  gen.seed = 77;
  Dataset data = GenerateUniform(gen).value();
  HashedPreferenceModel model(9, HashedPreferenceModel::Style::kTotalUniform);

  LineageDpStats stats;
  double exact =
      LineageExactWithPreprocessing(data, 0, model, {}, &stats).value();
  EXPECT_GE(exact, 0.0);
  EXPECT_LE(exact, 1.0);
  EXPECT_LE(stats.variables, 45u);
  // Millions of entries, but only the two widest levels live at once.
  EXPECT_GT(stats.peak_level_entries, 0u);
  EXPECT_LT(8 * stats.peak_level_entries, stats.states);
  EXPECT_LT(stats.peak_level_entries, LineageDpOptions{}.max_states);

  MonteCarloOptions mc;
  mc.samples = 200000;
  mc.seed = 4;
  auto estimate = MonteCarloSkylineProbability(data, 0, model, mc).value();
  EXPECT_NEAR(exact, estimate.estimate, 0.01);
}

TEST(LineageDpTest, CertainPreferencesShortCircuit) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  data.Append({2, 2}).CheckOK();
  TablePreferenceModel model;
  model.Set(0, 1, 0, 1.0, 0.0).CheckOK();
  model.Set(1, 1, 0, 1.0, 0.0).CheckOK();  // candidate 1 always dominates
  model.Set(0, 2, 0, 0.0, 1.0).CheckOK();  // candidate 2 never does
  model.Set(1, 2, 0, 0.5, 0.5).CheckOK();
  EXPECT_DOUBLE_EQ(
      LineageExactSkylineProbability(data, 0, AllBut(data, 0), model).value(),
      0.0);
}

TEST(LineageDpTest, StateBudgetIsEnforced) {
  Dataset data = RandomSmallDataset(3, 20, 3, 6);
  TablePreferenceModel model;
  LineageDpOptions tight;
  tight.max_states = 2;
  auto result = LineageExactSkylineProbability(data, 0, AllBut(data, 0),
                                               model, tight);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(LineageDpTest, RejectsOversizedAndInvalidInputs) {
  Dataset data(1);
  for (ValueId v = 0; v < 70; ++v) data.Append({v}).CheckOK();
  TablePreferenceModel model;
  EXPECT_EQ(LineageExactSkylineProbability(data, 0, AllBut(data, 0), model)
                .status()
                .code(),
            StatusCode::kResourceExhausted);  // 69 candidates > 64
  Dataset small = Example1Dataset();
  std::vector<ObjectId> self{0};
  EXPECT_EQ(LineageExactSkylineProbability(small, 0, self, model)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LineageExactSkylineProbability(small, 9, {}, model)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(LineageDpTest, EmptyCandidateListIsOne) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  std::vector<ObjectId> none;
  EXPECT_DOUBLE_EQ(
      LineageExactSkylineProbability(data, 0, none, model).value(), 1.0);
}

// ---------------------------------------------------------------------------
// Second referee: the DP in exact rational arithmetic.
// ---------------------------------------------------------------------------

TEST(LineageDpTest, RationalLineageEqualsRationalSubsetDfs) {
  // Random candidate sets of up to 14 candidates: the DP and the subset
  // DFS compute the same rational number, whatever the variable order.
  for (std::uint64_t seed = 2001; seed < 2013; ++seed) {
    Dataset data = RandomSmallDataset(seed, 15, 3, 3);
    RationalPreferenceModel model;
    GenerateRationalSimplexPreferences(data, seed, 8, &model).CheckOK();
    RationalOracle oracle(model);
    for (ObjectId target = 0; target < 3; ++target) {
      const std::vector<ObjectId> candidates = AllBut(data, target);
      Rational lineage =
          LineageExactSkylineProbability(data, target, candidates, oracle)
              .value();
      Rational subset_dfs =
          ExactSkylineProbability(data, target, candidates, oracle).value();
      EXPECT_EQ(lineage, subset_dfs) << "seed=" << seed << " target=" << target;
    }
  }
}

TEST(LineageDpTest, RationalLineageHandlesCertainPairsExactly) {
  // 14-candidate sets where some variables are certain (p = 1) or
  // impossible (p = 0) next to uncertain ones: the sweep's skipped
  // branches must leave the rational value equal to the subset DFS's.
  bool saw_zero = false;
  bool saw_one = false;
  for (std::uint64_t seed = 2101; seed < 2107; ++seed) {
    Dataset data = RandomSmallDataset(seed, 15, 3, 3);
    RationalPreferenceModel model;
    GenerateRationalSimplexPreferences(data, seed, 8, &model).CheckOK();
    model.Set(0, 0, 1, Rational(1), Rational(0)).CheckOK();  // 0 < 1 surely
    model.Set(1, 1, 2, Rational(0), Rational(1)).CheckOK();  // 2 < 1 surely
    model.Set(2, 0, 2, Rational(0), Rational(0)).CheckOK();  // incomparable
    RationalOracle oracle(model);
    for (ObjectId target = 0; target < 3; ++target) {
      const std::vector<ObjectId> candidates = AllBut(data, target);
      auto instance = internal::BuildFlatInstance(
          data, target, std::span<const ObjectId>(candidates), oracle);
      for (const Rational& p : instance.pair_prob) {
        saw_zero = saw_zero || p == Rational(0);
        saw_one = saw_one || p == Rational(1);
      }
      Rational lineage =
          LineageExactSkylineProbability(data, target, candidates, oracle)
              .value();
      Rational subset_dfs =
          ExactSkylineProbability(data, target, candidates, oracle).value();
      EXPECT_EQ(lineage, subset_dfs) << "seed=" << seed << " target=" << target;
    }
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_one);
}

TEST(LineageDpTest, DoubleLineageTracksRationalLineageOnDenseGroups) {
  // Uniform n = 22..30 (d = 5, 10 values): groups of 20+ candidates,
  // where the rational subset DFS is hopeless but the rational DP is
  // not. The sweep only adds nonnegative terms, so nothing cancels: the
  // production double DP stays within 1e-13 of it, relative.
  for (std::size_t n : {22u, 26u, 30u}) {
    UniformOptions gen;
    gen.objects = n;
    gen.dimensions = 5;
    gen.values_per_dimension = 10;
    gen.seed = 300 + n;
    Dataset data = GenerateUniform(gen).value();
    RationalPreferenceModel model;
    GenerateRationalPreferences(data, n, 8, &model).CheckOK();
    for (ObjectId target = 0; target < 2; ++target) {
      for (const auto& group :
           PlanTarget(data, target, /*preprocess=*/true,
                      NullPairTestOf(RationalOracle(model)))) {
        if (group.size() < kLineageMinCandidates) continue;
        Rational exact =
            LineageExactSkylineProbability(data, target, group,
                                           RationalOracle(model))
                .value();
        double fast = LineageExactSkylineProbability(data, target, group,
                                                     DoubleOracle(model))
                          .value();
        const double reference = exact.ToDouble();
        ASSERT_GT(reference, 0.0);
        EXPECT_LE(std::fabs(fast - reference), 1e-13 * reference)
            << "n=" << n << " target=" << target;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The Det+ engine choice.
// ---------------------------------------------------------------------------

TEST(LineageDpTest, BlockZipfDetPlusNeverReachesTheDp) {
  // The bz1200 benchmark shape: blocks of 12 keep every group below
  // kLineageMinCandidates, so every group stays on the subset DFS.
  BlockZipfOptions gen;
  gen.objects = 240;
  gen.dimensions = 5;
  gen.block_size = 12;
  gen.values_per_block = 6;
  gen.seed = 5;
  Dataset data = GenerateBlockZipf(gen).value();
  HashedPreferenceModel base(2013,
                             HashedPreferenceModel::Style::kTotalUniform);
  BlockLocalPreferenceModel model(base, gen.values_per_block);
  auto solver = SkylineSolver::Create(data, model).value();
  for (ObjectId target = 0; target < data.size(); ++target) {
    SolveStats stats;
    ASSERT_TRUE(solver.Exact(target, {}, &stats).ok());
    EXPECT_EQ(stats.lineage_groups, 0u) << "target " << target;
    EXPECT_EQ(stats.lineage_states, 0u) << "target " << target;
    EXPECT_LT(stats.largest_group, kLineageMinCandidates);
  }
}

TEST(LineageDpTest, UniformTwentyTwoAlwaysReachesTheDp) {
  // The uni22 benchmark shape: d = 5, 10 values, n = 22, one large
  // group per target that the DP solves in far fewer states than 2^m.
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    UniformOptions gen;
    gen.objects = 22;
    gen.dimensions = 5;
    gen.values_per_dimension = 10;
    gen.seed = seed;
    Dataset data = GenerateUniform(gen).value();
    auto solver = SkylineSolver::Create(data, model).value();
    SolverOptions plain;
    plain.preprocess = false;
    for (ObjectId target = 0; target < data.size(); ++target) {
      SolveStats stats;
      double dp = solver.Exact(target, {}, &stats).value();
      EXPECT_GE(stats.lineage_groups, 1u) << "seed " << seed << " t " << target;
      EXPECT_GT(stats.lineage_states, 0u);
      EXPECT_LT(stats.lineage_states,
                std::uint64_t{1} << stats.largest_group);
      if (target < 3) {
        EXPECT_NEAR(dp, solver.Exact(target, plain).value(), 1e-12);
      }
    }
  }
}

TEST(LineageDpTest, PlainDetKeepsTheSubsetDfs) {
  // preprocess = false is the paper's Det, verbatim: no DP, whatever the
  // group size.
  Dataset data = RandomSmallDataset(22, 18, 5, 10);
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);
  auto solver = SkylineSolver::Create(data, model).value();
  SolverOptions plain;
  plain.preprocess = false;
  SolveStats stats;
  ASSERT_TRUE(solver.Exact(0, plain, &stats).ok());
  EXPECT_EQ(stats.lineage_groups, 0u);
  EXPECT_EQ(stats.subsets_visited, (std::uint64_t{1} << 17) - 1);
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(LineageDpTest, EnginesAgreeBitwiseAtEveryThreadCount) {
  // Batch[i], SkylineSolver::Exact(i) and ParallelExact(i) run every
  // group through the same engine choice, so the DP's bits match across
  // entry points and thread counts.
  UniformOptions gen;
  gen.objects = 22;
  gen.dimensions = 5;
  gen.values_per_dimension = 10;
  gen.seed = 11;
  Dataset data = GenerateUniform(gen).value();
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);
  auto solver = SkylineSolver::Create(data, model).value();
  const std::size_t n = data.size();
  std::vector<double> serial(n);
  for (ObjectId t = 0; t < n; ++t) serial[t] = solver.Exact(t).value();
  for (std::size_t threads : {0u, 1u, 2u, 8u}) {
    ThreadPool pool(threads);
    auto batch = BatchExactSkylineProbabilities(data, model, pool).value();
    for (ObjectId t = 0; t < n; ++t) {
      const double parallel =
          ParallelExactSkylineProbability(data, t, model, pool).value();
      EXPECT_TRUE(SameBits(batch[t], serial[t]))
          << "batch, threads " << threads << " target " << t;
      EXPECT_TRUE(SameBits(parallel, serial[t]))
          << "parallel, threads " << threads << " target " << t;
    }
  }
}

TEST(LineageDpTest, HonoursCancelDeadlineAndBudget) {
  UniformOptions gen;
  gen.objects = 22;
  gen.dimensions = 5;
  gen.values_per_dimension = 10;
  gen.seed = 3;
  Dataset data = GenerateUniform(gen).value();
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);
  const std::vector<ObjectId> group =
      PlanTarget(data, 0, true, NullPairTestOf(DoubleOracle(model)))[0];
  DoubleOracle oracle(model);
  LineageDpStats stats;
  ASSERT_TRUE(LineageExactSkylineProbability(data, 0, group, oracle, {}, {},
                                             &stats)
                  .ok());
  ASSERT_GT(stats.states, 2u);

  CancelToken token;
  token.RequestCancel();
  ExactOptions cancelled;
  cancelled.cancel = &token;
  EXPECT_EQ(LineageExactSkylineProbability(data, 0, group, oracle, cancelled)
                .status()
                .code(),
            StatusCode::kCancelled);

  ExactOptions expired;
  expired.deadline = Deadline::At(std::chrono::steady_clock::now() -
                                  std::chrono::seconds(1));
  EXPECT_EQ(LineageExactSkylineProbability(data, 0, group, oracle, expired)
                .status()
                .code(),
            StatusCode::kResourceExhausted);

  // One unit of max_subsets per level entry: exactly the DP's states
  // pass, one fewer does not.
  ExactOptions exact_budget;
  exact_budget.max_subsets = stats.states;
  EXPECT_TRUE(
      LineageExactSkylineProbability(data, 0, group, oracle, exact_budget)
          .ok());
  ExactOptions short_budget;
  short_budget.max_subsets = stats.states - 1;
  EXPECT_EQ(
      LineageExactSkylineProbability(data, 0, group, oracle, short_budget)
          .status()
          .code(),
      StatusCode::kResourceExhausted);
}

TEST(LineageDpTest, StateBoundIsAnUpperBound) {
  // The order's 2^(open candidates) sum bounds the entries created.
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    Dataset data = RandomSmallDataset(seed, 24, 4, 6);
    TablePreferenceModel model;
    DoubleOracle oracle(model);
    const std::vector<ObjectId> candidates = AllBut(data, 0);
    auto instance = internal::BuildFlatInstance(
        data, 0, std::span<const ObjectId>(candidates), oracle);
    internal::LineageOrder order = internal::OrderLineageVariables(
        instance.pair_ids, instance.offsets, instance.pair_count());
    LineageDpStats stats;
    ASSERT_TRUE(LineageExactSkylineProbability(data, 0, candidates, oracle,
                                               {}, {}, &stats)
                    .ok());
    EXPECT_LE(stats.states, order.state_bound) << "seed " << seed;
  }
}

TEST(LineageDpTest, EveryLevelFitsItsFrontier) {
  // Level i holds at most 2^(open candidates at i): the alive sets of one
  // level differ only in candidates with requirements both decided and
  // pending. The levels' entries add up to the charged states, and the
  // widest is the reported peak.
  std::vector<Dataset> datasets;
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    datasets.push_back(RandomSmallDataset(seed, 24, 4, 6));
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    UniformOptions gen;
    gen.objects = 22;
    gen.dimensions = 5;
    gen.values_per_dimension = 10;
    gen.seed = seed;
    datasets.push_back(GenerateUniform(gen).value());
  }
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);
  DoubleOracle oracle(model);
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const std::vector<ObjectId> candidates = AllBut(datasets[d], 0);
    auto instance = internal::BuildFlatInstance(
        datasets[d], 0, std::span<const ObjectId>(candidates), oracle);
    const internal::LineageOrder order = internal::OrderLineageVariables(
        instance.pair_ids, instance.offsets, instance.pair_count());
    LineageDpStats stats;
    std::vector<std::uint64_t> levels;
    ASSERT_TRUE(internal::SolveLineage<double>(
                    order, std::span<const double>(instance.pair_prob), {},
                    {}, &stats, &levels)
                    .ok());
    const std::size_t steps = order.masks.size();
    ASSERT_LE(levels.size(), steps);
    std::vector<std::uint64_t> suffix(steps + 1, 0);
    for (std::size_t i = steps; i-- > 0;) {
      suffix[i] = suffix[i + 1] | order.masks[i];
    }
    std::uint64_t touched = 0;
    std::uint64_t total = 0;
    std::uint64_t widest = 0;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const int open = std::popcount(touched & suffix[i]);
      EXPECT_LE(levels[i], std::uint64_t{1} << open)
          << "dataset " << d << " level " << i;
      touched |= order.masks[i];
      total += levels[i];
      widest = std::max(widest, levels[i]);
    }
    EXPECT_EQ(total, stats.states) << "dataset " << d;
    EXPECT_EQ(widest, stats.peak_level_entries) << "dataset " << d;

    // max_states caps the widest level: the peak passes, one fewer fails.
    LineageDpOptions roomy;
    roomy.max_states = stats.peak_level_entries;
    EXPECT_TRUE(internal::SolveLineage<double>(
                    order, std::span<const double>(instance.pair_prob), {},
                    roomy, nullptr)
                    .ok());
    LineageDpOptions cramped;
    cramped.max_states = stats.peak_level_entries - 1;
    if (cramped.max_states == 0) continue;  // 0 means unlimited
    EXPECT_EQ(internal::SolveLineage<double>(
                  order, std::span<const double>(instance.pair_prob), {},
                  cramped, nullptr)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted)
        << "dataset " << d;
  }
}

}  // namespace
}  // namespace skypref
