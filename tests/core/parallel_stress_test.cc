#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/parallel.h"
#include "src/core/sam_bitslice.h"
#include "test_util.h"

// ThreadSanitizer-targeted determinism tests: the documented contract is
// that every parallel solver fixes its work split (and seeds each
// sampling block's PRNG from the BLOCK index) independently of the
// executing thread, so results are bit-identical for any thread count
// including the 0-thread inline pool. A data race in the fan-out would
// show up either as a TSan report or as a determinism violation here.
// Run under the `tsan` preset via ctest -L concurrency.

namespace skypref {
namespace {

using skypref::testing::RandomSmallDataset;

TEST(ParallelDeterminismStressTest, MonteCarloThreadCountSweep) {
  Dataset data = RandomSmallDataset(91, 12, 3, 4);
  HashedPreferenceModel model(5,
                              HashedPreferenceModel::Style::kSimplexUniform);
  MonteCarloOptions options;
  options.samples = 4000;
  options.seed = 99;

  options.block_size = 512;  // eight blocks

  ThreadPool reference_pool(0);
  auto reference = BitSlicedMonteCarloSkylineProbability(
      data, 0, model, reference_pool, options);
  ASSERT_TRUE(reference.ok());

  for (std::size_t threads : {1u, 2u, 3u, 5u, 8u}) {
    ThreadPool pool(threads);
    auto run =
        BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(run->skyline_worlds, reference->skyline_worlds)
        << "threads=" << threads;
    EXPECT_EQ(run->samples, reference->samples) << "threads=" << threads;
    EXPECT_EQ(run->estimate, reference->estimate) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismStressTest, MonteCarloRepeatedRunsOnOnePool) {
  // The same pool must reproduce the same estimate run after run: stale
  // batch state (a leftover next_index_ or current_fn_) would break this
  // long before it segfaults.
  Dataset data = RandomSmallDataset(17, 8, 2, 3);
  HashedPreferenceModel model(3, HashedPreferenceModel::Style::kTotalUniform);
  MonteCarloOptions options;
  options.samples = 2000;
  options.seed = 7;
  options.block_size = 256;
  ThreadPool pool(4);
  auto first = BitSlicedMonteCarloSkylineProbability(data, 1, model, pool,
                                                     options);
  ASSERT_TRUE(first.ok());
  for (int round = 0; round < 25; ++round) {
    auto again = BitSlicedMonteCarloSkylineProbability(data, 1, model, pool,
                                                       options);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->skyline_worlds, first->skyline_worlds)
        << "round " << round;
  }
}

TEST(ParallelDeterminismStressTest, ExactGroupFanOutMatchesInline) {
  Dataset data = RandomSmallDataset(29, 16, 3, 4);
  TablePreferenceModel model;
  ThreadPool inline_pool(0);
  ThreadPool pool(6);
  for (ObjectId target = 0; target < 6; ++target) {
    auto serial =
        ParallelExactSkylineProbability(data, target, model, inline_pool);
    auto parallel = ParallelExactSkylineProbability(data, target, model, pool);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    // Group results multiply in a fixed order, so equality is exact.
    EXPECT_EQ(serial.value(), parallel.value()) << "target " << target;
  }
}

TEST(ParallelDeterminismStressTest, IntraGroupEngineThreadSweep) {
  // One 18-candidate independence group (every candidate shares dim-0
  // value 1 against the target's 0) next to the dense groups of a
  // uniform n = 22 instance: both take the lineage DP, each group on
  // whichever worker picks it up. Under TSan this exercises concurrent
  // DP solves; determinism-wise the result must be bit-identical for
  // every thread count and every repetition.
  Dataset star(2);
  star.Append({0, 0}).CheckOK();
  for (std::uint32_t i = 0; i < 18; ++i) {
    star.Append({1, i + 1}).CheckOK();
  }
  Dataset dense = RandomSmallDataset(22, 22, 5, 10);
  TablePreferenceModel model;
  ThreadPool inline_pool(0);
  for (const Dataset* data : {&star, &dense}) {
    SolveStats stats;
    auto reference = ParallelExactSkylineProbability(*data, 0, model,
                                                     inline_pool, {}, &stats);
    ASSERT_TRUE(reference.ok());
    EXPECT_GE(stats.lineage_groups, 1u);
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      for (int round = 0; round < 3; ++round) {
        auto run = ParallelExactSkylineProbability(*data, 0, model, pool);
        ASSERT_TRUE(run.ok()) << "threads=" << threads << " round=" << round;
        ASSERT_EQ(run.value(), reference.value())
            << "threads=" << threads << " round=" << round;
      }
    }
  }
}

TEST(ParallelDeterminismStressTest, IntraGroupEngineBudgetRace) {
  // A budget that trips mid-solve: every thread count must agree that
  // the solve fails (each DP level entry charges one unit, and the
  // entries a group creates do not depend on the schedule).
  Dataset data = RandomSmallDataset(22, 22, 5, 10);
  TablePreferenceModel model;
  ThreadPool inline_pool(0);
  SolveStats stats;
  ASSERT_TRUE(ParallelExactSkylineProbability(data, 0, model, inline_pool,
                                              {}, &stats)
                  .ok());
  ExactOptions tight;
  tight.max_subsets = stats.lineage_states / 2;
  ASSERT_GT(tight.max_subsets, 0u);
  for (std::size_t threads : {0u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(ParallelExactSkylineProbability(data, 0, model, pool, tight)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted)
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismStressTest, BatchSolverThreadSweep) {
  Dataset data = RandomSmallDataset(59, 16, 3, 4);
  TablePreferenceModel model;
  ThreadPool reference_pool(0);
  auto reference =
      BatchExactSkylineProbabilities(data, model, reference_pool);
  ASSERT_TRUE(reference.ok());
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    auto run = BatchExactSkylineProbabilities(data, model, pool);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    ASSERT_EQ(run.value(), reference.value()) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismStressTest, AllWorldsSweepAndSharedPoolReuse) {
  // The bit-sliced batch (the engine of ProbabilisticSkyline/TopKSkyline):
  // a thread sweep, then repeated runs on one pool, all bit-identical to
  // the inline reference.
  Dataset data = RandomSmallDataset(53, 14, 2, 4);
  HashedPreferenceModel model(11, HashedPreferenceModel::Style::kTotalUniform);
  SolverOptions options;
  options.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
  options.monte_carlo.samples = 3000;
  options.monte_carlo.seed = 21;
  options.monte_carlo.block_size = 512;  // six blocks

  ThreadPool reference_pool(0);
  auto reference = BatchMonteCarloSkylineProbabilities(data, model,
                                                       reference_pool, options);
  ASSERT_TRUE(reference.ok());

  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    auto run = BatchMonteCarloSkylineProbabilities(data, model, pool, options);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    ASSERT_EQ(run.value(), reference.value()) << "threads=" << threads;
  }
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    auto run = BatchMonteCarloSkylineProbabilities(data, model, pool, options);
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run.value(), reference.value()) << "round " << round;
  }
}

}  // namespace
}  // namespace skypref
