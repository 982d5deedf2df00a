/// Randomized, seeded cross-validation of the Det hot path.
///
/// For every seeded instance the rational oracle is the referee:
///
///   * flat and lookup DFS engines agree bit-exactly with
///     ExactSkylineProbabilityRational (rational instantiations) and
///     with each other in doubles;
///   * the lineage DP on RationalOracle reproduces the rational subset
///     DFS EXACTLY — the second referee — whichever thread solves it;
///   * ParallelExactSkylineProbability is bit-identical across
///     0/1/2/8-thread pools and tracks the rational truth to 1e-12 in
///     doubles;
///   * subset-budget exhaustion is deterministic, and empty candidate
///     sets short-circuit to probability 1.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/exact.h"
#include "src/core/lineage_dp.h"
#include "src/core/parallel.h"
#include "src/core/solver.h"
#include "src/model/preference_generator.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::RandomSmallDataset;

struct HotpathSpec {
  std::uint64_t seed;
  std::size_t objects;
  std::size_t dimensions;
  ValueId values;
  bool simplex;
};

class HotpathPropertyTest : public ::testing::TestWithParam<HotpathSpec> {
 protected:
  void SetUp() override {
    const HotpathSpec& spec = GetParam();
    data_ = RandomSmallDataset(spec.seed, spec.objects, spec.dimensions,
                               spec.values);
    Status status =
        spec.simplex
            ? GenerateRationalSimplexPreferences(data_, spec.seed ^ 0xfeed, 8,
                                                 &model_)
            : GenerateRationalPreferences(data_, spec.seed ^ 0xfeed, 8,
                                          &model_);
    status.CheckOK();
  }

  std::vector<ObjectId> Candidates(ObjectId target) const {
    std::vector<ObjectId> ids;
    for (ObjectId i = 0; i < data_.size(); ++i) {
      if (i != target) ids.push_back(i);
    }
    return ids;
  }

  Dataset data_{1};
  RationalPreferenceModel model_;
};

TEST_P(HotpathPropertyTest, EnginesMatchTheRationalReferee) {
  RationalOracle oracle(model_);
  ExactOptions flat;
  flat.engine = ExactOptions::Engine::kFlat;
  ExactOptions lookup;
  lookup.engine = ExactOptions::Engine::kLookup;
  for (ObjectId target = 0; target < data_.size(); ++target) {
    std::vector<ObjectId> candidates = Candidates(target);
    Rational reference =
        ExactSkylineProbabilityRational(data_, target, model_, false).value();
    EXPECT_EQ(
        ExactSkylineProbability(data_, target, candidates, oracle, flat)
            .value(),
        reference)
        << "target=" << target;
    EXPECT_EQ(
        ExactSkylineProbability(data_, target, candidates, oracle, lookup)
            .value(),
        reference)
        << "target=" << target;
    // Doubles: the two engines are bit-identical to each other and track
    // the rational truth within compensated-summation tolerance.
    DoubleOracle doubles(model_);
    double via_flat =
        ExactSkylineProbability(data_, target, candidates, doubles, flat)
            .value();
    double via_lookup =
        ExactSkylineProbability(data_, target, candidates, doubles, lookup)
            .value();
    EXPECT_EQ(via_flat, via_lookup) << "target=" << target;
    EXPECT_NEAR(via_flat, reference.ToDouble(), 1e-12) << "target=" << target;
  }
}

TEST_P(HotpathPropertyTest, ParallelEngineIsExactInRationals) {
  // The lineage DP over every other object (no preprocessing: groups of
  // up to 8 candidates), solved for all targets at once over the pool.
  RationalOracle oracle(model_);
  ThreadPool inline_pool(0);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const std::size_t n = data_.size();
  std::vector<Rational> reference(n);
  for (ObjectId target = 0; target < n; ++target) {
    reference[target] =
        ExactSkylineProbabilityRational(data_, target, model_, false).value();
  }
  for (ThreadPool* pool : {&inline_pool, &pool2, &pool8}) {
    std::vector<Rational> lineage(n);
    std::vector<Status> statuses(n);
    pool->ParallelFor(n, [&](std::size_t target) {
      std::vector<ObjectId> candidates = Candidates(target);
      auto result = LineageExactSkylineProbability(
          data_, static_cast<ObjectId>(target),
          std::span<const ObjectId>(candidates), oracle);
      if (result.ok()) {
        lineage[target] = result.value();
      } else {
        statuses[target] = result.status();
      }
    });
    for (ObjectId target = 0; target < n; ++target) {
      ASSERT_TRUE(statuses[target].ok()) << statuses[target];
      EXPECT_EQ(lineage[target], reference[target])
          << "target=" << target << " threads=" << pool->thread_count();
    }
  }
}

TEST_P(HotpathPropertyTest, ParallelSolverThreadCountInvariance) {
  ThreadPool pool0(0), pool1(1), pool2(2), pool8(8);
  for (ObjectId target = 0; target < data_.size(); ++target) {
    Rational reference =
        ExactSkylineProbabilityRational(data_, target, model_, true).value();
    auto baseline =
        ParallelExactSkylineProbability(data_, target, model_, pool0);
    ASSERT_TRUE(baseline.ok());
    EXPECT_NEAR(baseline.value(), reference.ToDouble(), 1e-12)
        << "target=" << target;
    for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      auto run = ParallelExactSkylineProbability(data_, target, model_, *pool);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run.value(), baseline.value())
          << "target=" << target << " threads=" << pool->thread_count();
    }
  }
}

TEST_P(HotpathPropertyTest, BudgetExhaustionIsDeterministic) {
  ThreadPool pool(4);
  ExactOptions tight;
  tight.max_subsets = 1;  // any group with >= 2 candidates needs >= 3
  SolveStats stats;
  auto run =
      ParallelExactSkylineProbability(data_, 0, model_, pool, tight, &stats);
  bool has_multi_candidate_group = false;
  for (std::size_t size : stats.group_sizes) {
    if (size >= 2) has_multi_candidate_group = true;
  }
  if (run.ok()) {
    // Every surviving group was a singleton; re-running must succeed the
    // same way (stats only fill on success).
    EXPECT_FALSE(has_multi_candidate_group);
    auto again =
        ParallelExactSkylineProbability(data_, 0, model_, pool, tight);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), run.value());
  } else {
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(ParallelExactSkylineProbability(data_, 0, model_, pool, tight)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted);
  }
}

TEST_P(HotpathPropertyTest, GroupSizeStatsAreConsistent) {
  ThreadPool pool(2);
  SolveStats stats;
  auto run =
      ParallelExactSkylineProbability(data_, 0, model_, pool, {}, &stats);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(stats.group_sizes.size(), stats.groups);
  std::size_t total = 0, largest = 0;
  for (std::size_t size : stats.group_sizes) {
    total += size;
    largest = std::max(largest, size);
  }
  EXPECT_EQ(total, stats.after_absorption);
  EXPECT_EQ(largest, stats.largest_group);
}

TEST(HotpathEdgeCaseTest, SingleObjectHasNoCandidates) {
  Dataset data(3);
  data.Append({0, 1, 2}).CheckOK();
  TablePreferenceModel model;
  ThreadPool pool(2);
  SolveStats stats;
  auto run = ParallelExactSkylineProbability(data, 0, model, pool, {}, &stats);
  ASSERT_TRUE(run.ok());
  EXPECT_DOUBLE_EQ(run.value(), 1.0);
  EXPECT_EQ(stats.groups, 0u);
  EXPECT_TRUE(stats.group_sizes.empty());
}

TEST(HotpathEdgeCaseTest, ParallelEngineHandlesEmptyInstance) {
  // A group with no candidates: no variables, nothing alive, survival 1.
  const std::vector<std::uint32_t> offsets = {0};
  internal::LineageOrder order =
      internal::OrderLineageVariables({}, offsets, 0);
  EXPECT_EQ(order.state_bound, 0u);
  auto result = internal::SolveLineage<double>(order, {}, {}, {}, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SeedSweep, HotpathPropertyTest,
    ::testing::Values(HotpathSpec{21, 7, 2, 3, false},
                      HotpathSpec{22, 8, 3, 3, false},
                      HotpathSpec{23, 9, 2, 4, false},
                      HotpathSpec{24, 6, 4, 2, false},
                      HotpathSpec{25, 8, 2, 4, true},
                      HotpathSpec{26, 7, 3, 3, true}),
    [](const ::testing::TestParamInfo<HotpathSpec>& param_info) {
      const HotpathSpec& s = param_info.param;
      return "seed" + std::to_string(s.seed) + "_n" +
             std::to_string(s.objects) + "_d" + std::to_string(s.dimensions) +
             "_v" + std::to_string(s.values) +
             (s.simplex ? "_simplex" : "_total");
    });

}  // namespace
}  // namespace skypref
