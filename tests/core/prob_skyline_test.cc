#include "src/core/prob_skyline.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/exact.h"
#include "src/core/monte_carlo.h"
#include "src/core/sam_parallel.h"
#include "src/workload/block_zipf_generator.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::Figure1Dataset;
using skypref::testing::RandomSmallDataset;

// The thread counts every determinism contract in this repo is pinned
// against (0 = inline execution on the calling thread).
const std::size_t kThreadCounts[] = {0, 1, 2, 8};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<ObjectId> ReferenceSkyline(const Dataset& data,
                                       const PreferenceModel& model,
                                       double tau) {
  std::vector<ObjectId> skyline;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (ExactSkylineProbability(data, i, model).value() >= tau) {
      skyline.push_back(i);
    }
  }
  return skyline;
}

TEST(ProbSkylineTest, MatchesPerObjectExactOnExample1) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  for (double tau : {0.1, 0.1875, 0.3, 0.5}) {
    EXPECT_EQ(ExactProbabilisticSkyline(data, model, tau).value(),
              ReferenceSkyline(data, model, tau))
        << "tau=" << tau;
  }
}

TEST(ProbSkylineTest, MatchesPerObjectExactOnRandomInstances) {
  for (std::uint64_t seed = 601; seed < 613; ++seed) {
    Dataset data = RandomSmallDataset(seed, 10, 3, 4);
    TablePreferenceModel model;
    for (double tau : {0.05, 0.3, 0.7}) {
      EXPECT_EQ(ExactProbabilisticSkyline(data, model, tau).value(),
                ReferenceSkyline(data, model, tau))
          << "seed=" << seed << " tau=" << tau;
    }
  }
}

TEST(ProbSkylineTest, BoundsDecideMostObjects) {
  // With extreme thresholds almost every object is screened by cheap
  // bounds; the stats record the split.
  Dataset data = RandomSmallDataset(99, 16, 3, 4);
  TablePreferenceModel model;
  ProbSkylineStats stats;
  ASSERT_TRUE(
      ExactProbabilisticSkyline(data, model, 0.95, {}, &stats).ok());
  EXPECT_EQ(stats.decided_by_bounds + stats.exact_fallbacks, data.size());
  EXPECT_GT(stats.decided_by_bounds, 0u);
}

TEST(ProbSkylineTest, ThresholdOneMeansCertainSkyline) {
  // Only objects that are skyline points with probability exactly 1.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  TablePreferenceModel model;
  model.Set(0, 0, 1, 1.0, 0.0).CheckOK();
  model.Set(1, 0, 1, 1.0, 0.0).CheckOK();
  auto skyline = ExactProbabilisticSkyline(data, model, 1.0).value();
  EXPECT_EQ(skyline, (std::vector<ObjectId>{0}));
}

TEST(ProbSkylineTest, RejectsBadArguments) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  EXPECT_EQ(ExactProbabilisticSkyline(data, model, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExactProbabilisticSkyline(data, model, 1.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExactProbabilisticSkyline(data, model, kNaN).status().code(),
            StatusCode::kInvalidArgument);
  Dataset empty(1);
  EXPECT_EQ(ExactProbabilisticSkyline(empty, model, 0.5).status().code(),
            StatusCode::kFailedPrecondition);
}

// -------------------------------------------------------------------------
// The sampled queries: ProbabilisticSkyline and TopKSkyline over one
// shared-world batch.
// -------------------------------------------------------------------------

// The sampled queries on the bit-sliced batch sampler; samples == 0
// selects the union-bound world count.
SolverOptions SampledOptions(std::uint64_t seed, std::uint64_t samples = 0) {
  SolverOptions options;
  options.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
  options.monte_carlo.seed = seed;
  options.monte_carlo.samples = samples;
  return options;
}

// Every object's estimate, indexed by object id, from TopKSkyline with
// k = n (-1 marks a failed query).
std::vector<double> AllEstimates(const Dataset& data,
                                 const PreferenceModel& model,
                                 ThreadPool& pool,
                                 const SolverOptions& options) {
  std::vector<double> estimates(data.size(), -1.0);
  auto ranked = TopKSkyline(data, model, data.size(), pool, options);
  EXPECT_TRUE(ranked.ok()) << ranked.status();
  if (!ranked.ok()) return estimates;
  for (const auto& [id, estimate] : ranked.value()) estimates[id] = estimate;
  return estimates;
}

void ExpectWithinOfExact(const Dataset& data, const PreferenceModel& model,
                         const std::vector<double>& estimates,
                         double epsilon) {
  ASSERT_EQ(estimates.size(), data.size());
  for (ObjectId i = 0; i < data.size(); ++i) {
    double truth = ExactSkylineProbability(data, i, model).value();
    EXPECT_NEAR(estimates[i], truth, epsilon) << "object " << i;
  }
}

// At the union-bound world count every estimate lies within epsilon of
// its exact value simultaneously (confidence 1 - delta; the run is
// deterministic per seed).
TEST(AllWorldsTest, MatchesPerObjectExactOnFigure1) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolverOptions options = SampledOptions(5);
  options.monte_carlo.epsilon = 0.005;
  std::vector<double> estimates = AllEstimates(data, model, pool, options);
  ASSERT_EQ(estimates.size(), 3u);
  EXPECT_NEAR(estimates[0], 0.5, 0.005);   // sky(P1)
  EXPECT_NEAR(estimates[1], 0.25, 0.005);  // sky(P2)
  EXPECT_NEAR(estimates[2], 0.5, 0.005);   // sky(P3)
}

TEST(AllWorldsTest, MatchesPerObjectExactOnExample1) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolverOptions options = SampledOptions(17);
  ExpectWithinOfExact(data, model, AllEstimates(data, model, pool, options),
                      options.monte_carlo.epsilon);
}

TEST(AllWorldsTest, ConsistentWorldsAcrossObjects) {
  // Within one world the same pair outcome is shared by all dominance
  // checks; with incomparability mass, estimates must match exact values
  // that the independence shortcut would get wrong.
  Dataset data = RandomSmallDataset(23, 8, 2, 3);
  TablePreferenceModel model;
  model.Set(0, 0, 1, 0.4, 0.3).CheckOK();
  model.Set(0, 0, 2, 0.2, 0.5).CheckOK();
  model.Set(0, 1, 2, 0.6, 0.1).CheckOK();
  model.Set(1, 0, 1, 0.3, 0.3).CheckOK();
  model.Set(1, 0, 2, 0.5, 0.25).CheckOK();
  model.Set(1, 1, 2, 0.45, 0.45).CheckOK();
  ThreadPool pool(2);
  // The bit-sliced batch itself, against exact truth.
  auto batch = BatchMonteCarloSkylineProbabilities(data, model, pool,
                                                   SampledOptions(29, 150000));
  ASSERT_TRUE(batch.ok()) << batch.status();
  ExpectWithinOfExact(data, model, batch.value(), 0.01);
  // And the query wrappers at the union-bound world count.
  SolverOptions options = SampledOptions(31);
  ExpectWithinOfExact(data, model, AllEstimates(data, model, pool, options),
                      options.monte_carlo.epsilon);
}

TEST(AllWorldsTest, DeterministicPerSeed) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolverOptions options = SampledOptions(3, 500);
  auto a = TopKSkyline(data, model, 3, pool, options);
  auto b = TopKSkyline(data, model, 3, pool, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(ProbabilisticSkyline(data, model, 0.4, pool, options).value(),
            ProbabilisticSkyline(data, model, 0.4, pool, options).value());
}

TEST(AllWorldsTest, RejectsInvalidDataAndOptions) {
  TablePreferenceModel model;
  ThreadPool pool(0);
  Dataset empty(1);
  EXPECT_FALSE(ProbabilisticSkyline(empty, model, 0.5, pool).ok());
  EXPECT_FALSE(TopKSkyline(empty, model, 1, pool).ok());
  Dataset data = Figure1Dataset();
  SolverOptions bad = SampledOptions(1);
  bad.monte_carlo.epsilon = 0.0;
  EXPECT_EQ(ProbabilisticSkyline(data, model, 0.5, pool, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TopKSkyline(data, model, 2, pool, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AllWorldsTest, PreCancelledTokenCancelsBeforeSampling) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  CancelToken token;
  token.RequestCancel();
  SolverOptions options = SampledOptions(1, 100000);
  options.monte_carlo.cancel = &token;
  EXPECT_EQ(
      ProbabilisticSkyline(data, model, 0.5, pool, options).status().code(),
      StatusCode::kCancelled);
  EXPECT_EQ(TopKSkyline(data, model, 2, pool, options).status().code(),
            StatusCode::kCancelled);
}

// A truncated batch is an error for the queries: a threshold or ranking
// over fewer worlds would not carry the (epsilon, delta) guarantee.
TEST(AllWorldsTest, ExpiredDeadlineExhaustsTheEstimate) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolverOptions options = SampledOptions(1, 100000);
  options.monte_carlo.deadline =
      Deadline::At(Deadline::Clock::now() - std::chrono::seconds(1));
  EXPECT_EQ(
      ProbabilisticSkyline(data, model, 0.5, pool, options).status().code(),
      StatusCode::kResourceExhausted);
  EXPECT_EQ(TopKSkyline(data, model, 2, pool, options).status().code(),
            StatusCode::kResourceExhausted);
  // Cancellation wins over an expired deadline.
  CancelToken token;
  token.RequestCancel();
  options.monte_carlo.cancel = &token;
  EXPECT_EQ(
      ProbabilisticSkyline(data, model, 0.5, pool, options).status().code(),
      StatusCode::kCancelled);
  EXPECT_EQ(TopKSkyline(data, model, 2, pool, options).status().code(),
            StatusCode::kCancelled);
}

TEST(ProbabilisticSkylineTest, ThresholdFiltersObjects) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolverOptions options = SampledOptions(101, 50000);
  // Exact values: sky(O)=3/16=0.1875. Pick tau between strata.
  auto skyline = ProbabilisticSkyline(data, model, 0.3, pool, options).value();
  for (ObjectId id : skyline) {
    double truth = ExactSkylineProbability(data, id, model).value();
    EXPECT_GE(truth, 0.28) << "object " << id;
  }
  auto permissive =
      ProbabilisticSkyline(data, model, 0.05, pool, options).value();
  EXPECT_GE(permissive.size(), skyline.size());
  // Increasing id order, and exactly the objects whose estimate clears
  // the threshold.
  std::vector<double> estimates = AllEstimates(data, model, pool, options);
  std::vector<ObjectId> expected;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (estimates[i] >= 0.3) expected.push_back(i);
  }
  EXPECT_EQ(skyline, expected);
}

TEST(ProbabilisticSkylineTest, RejectsBadThreshold) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(0);
  for (double tau : {0.0, 1.0, -0.5, 1.5, kNaN}) {
    EXPECT_EQ(ProbabilisticSkyline(data, model, tau, pool).status().code(),
              StatusCode::kInvalidArgument)
        << "tau=" << tau;
  }
}

TEST(ProbabilisticSkylineTest, BitIdenticalAcrossThreadCounts) {
  // 24 objects at epsilon = 0.05 need 1,696 union-bound worlds: four
  // 512-world blocks, so the fan-out really splits the stream.
  Dataset data = RandomSmallDataset(71, 24, 3, 4);
  HashedPreferenceModel model(9, HashedPreferenceModel::Style::kSimplexUniform);
  SolverOptions options = SampledOptions(41);
  options.monte_carlo.epsilon = 0.05;
  options.monte_carlo.block_size = 512;
  ThreadPool reference_pool(0);
  auto skyline = ProbabilisticSkyline(data, model, 0.3, reference_pool,
                                      options);
  auto top = TopKSkyline(data, model, 7, reference_pool, options);
  ASSERT_TRUE(skyline.ok());
  ASSERT_TRUE(top.ok());
  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(ProbabilisticSkyline(data, model, 0.3, pool, options).value(),
              skyline.value())
        << "threads=" << threads;
    EXPECT_EQ(TopKSkyline(data, model, 7, pool, options).value(), top.value())
        << "threads=" << threads;
  }
}

TEST(TopKSkylineTest, RanksByEstimate) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolverOptions options = SampledOptions(13, 50000);
  auto top = TopKSkyline(data, model, 3, pool, options).value();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].second, top[1].second);
  EXPECT_GE(top[1].second, top[2].second);
  // Highest estimates first, ties broken by increasing object id.
  auto all = TopKSkyline(data, model, data.size(), pool, options).value();
  for (std::size_t r = 0; r + 1 < all.size(); ++r) {
    EXPECT_TRUE(all[r].second > all[r + 1].second ||
                (all[r].second == all[r + 1].second &&
                 all[r].first < all[r + 1].first))
        << "rank " << r;
  }
  EXPECT_TRUE(std::equal(top.begin(), top.end(), all.begin()));
}

TEST(TopKSkylineTest, KLargerThanDatasetReturnsAll) {
  Dataset data = Figure1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolverOptions options = SampledOptions(1, 1000);
  auto top = TopKSkyline(data, model, 99, pool, options).value();
  EXPECT_EQ(top.size(), 3u);
  EXPECT_EQ(TopKSkyline(data, model, 0, pool, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParallelAllWorldsTest, ThreadCountInvariantAndAccurate) {
  BlockZipfOptions gen;
  gen.objects = 60;
  gen.dimensions = 2;
  gen.block_size = 6;
  gen.values_per_block = 4;
  gen.seed = 3;
  Dataset data = GenerateBlockZipf(gen).value();
  HashedPreferenceModel base(7, HashedPreferenceModel::Style::kTotalUniform);
  BlockLocalPreferenceModel prefs(base, 4);

  SolverOptions options = SampledOptions(11, 40000);
  ThreadPool pool0(0), pool4(4);
  std::vector<double> serial = AllEstimates(data, prefs, pool0, options);
  std::vector<double> parallel = AllEstimates(data, prefs, pool4, options);
  EXPECT_EQ(serial, parallel);

  auto solver = SkylineSolver::Create(data, prefs).value();
  for (ObjectId i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(parallel[i], solver.Exact(i).value(), 0.015)
        << "object " << i;
  }
}

TEST(ParallelAllWorldsTest, PreCancelledTokenCancelsAtEveryThreadCount) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  CancelToken token;
  token.RequestCancel();
  SolverOptions options = SampledOptions(1, 40000);
  options.monte_carlo.cancel = &token;
  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(
        ProbabilisticSkyline(data, model, 0.5, pool, options).status().code(),
        StatusCode::kCancelled)
        << "threads " << threads;
    EXPECT_EQ(TopKSkyline(data, model, 2, pool, options).status().code(),
              StatusCode::kCancelled)
        << "threads " << threads;
  }
}

TEST(ParallelAllWorldsTest, ExpiredDeadlineExhaustsEveryChunk) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  SolverOptions options = SampledOptions(1, 40000);
  options.monte_carlo.deadline =
      Deadline::At(Deadline::Clock::now() - std::chrono::seconds(1));
  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(
        ProbabilisticSkyline(data, model, 0.5, pool, options).status().code(),
        StatusCode::kResourceExhausted)
        << "threads " << threads;
    EXPECT_EQ(TopKSkyline(data, model, 2, pool, options).status().code(),
              StatusCode::kResourceExhausted)
        << "threads " << threads;
  }
}

TEST(ParallelAllWorldsTest, RejectsInvalidInputs) {
  Dataset data = Example1Dataset();
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolverOptions zero = SampledOptions(1);
  zero.monte_carlo.epsilon = 0.0;
  EXPECT_EQ(TopKSkyline(data, model, 2, pool, zero).status().code(),
            StatusCode::kInvalidArgument);
  // The bit-sliced engine needs whole 64-world chunks per block.
  SolverOptions ragged = SampledOptions(1, 1000);
  ragged.monte_carlo.block_size = 100;
  EXPECT_EQ(
      ProbabilisticSkyline(data, model, 0.5, pool, ragged).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace skypref
