#include "src/core/absorption.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/solver.h"
#include "src/util/random.h"
#include "src/workload/block_zipf_generator.h"
#include "src/workload/nursery.h"
#include "test_util.h"

namespace skypref {
namespace {

using skypref::testing::Example1Dataset;
using skypref::testing::RandomSmallDataset;
using skypref::testing::UnanimousHalfRational;

std::vector<ObjectId> AllBut(const Dataset& data, ObjectId target) {
  std::vector<ObjectId> ids;
  for (ObjectId i = 0; i < data.size(); ++i) {
    if (i != target) ids.push_back(i);
  }
  return ids;
}

TEST(AbsorbsTest, Example1Q1AbsorbedByQ2) {
  Dataset data = Example1Dataset();
  // Q2=(1,0) differs from O on dim 0 only; Q1=(1,1) matches Q2 there.
  EXPECT_TRUE(Absorbs(data, 0, /*absorber=*/2, /*absorbed=*/1));
  // Not the other way round: Q1 differs from O on both dims, and Q2
  // differs from Q1 on dim 1.
  EXPECT_FALSE(Absorbs(data, 0, /*absorber=*/1, /*absorbed=*/2));
  // Q3=(2,2) shares nothing.
  EXPECT_FALSE(Absorbs(data, 0, 2, 3));
  EXPECT_FALSE(Absorbs(data, 0, 3, 1));
  // Self-absorption is excluded.
  EXPECT_FALSE(Absorbs(data, 0, 2, 2));
}

TEST(AbsorptionTest, Example1DropsExactlyQ1) {
  Dataset data = Example1Dataset();
  AbsorptionStats stats;
  std::vector<ObjectId> survivors =
      AbsorbCandidates(data, 0, AllBut(data, 0), &stats);
  EXPECT_EQ(survivors, (std::vector<ObjectId>{2, 3, 4}));
  EXPECT_EQ(stats.input_candidates, 4u);
  EXPECT_EQ(stats.absorbed, 1u);
}

TEST(AbsorptionTest, PreservesSkylineProbabilityExactly) {
  Dataset data = Example1Dataset();
  RationalPreferenceModel model = UnanimousHalfRational(data);
  RationalOracle oracle(model);
  std::vector<ObjectId> all = AllBut(data, 0);
  std::vector<ObjectId> survivors = AbsorbCandidates(data, 0, all);
  Rational before = ExactSkylineProbability(data, 0, all, oracle).value();
  Rational after =
      ExactSkylineProbability(data, 0, survivors, oracle).value();
  EXPECT_EQ(before, after);
  EXPECT_EQ(after, Rational::FromRatio(3, 16).value());
}

TEST(AbsorptionTest, TransitiveChainCollapsesInOnePass) {
  // Qa differs from O on dim 0 only; Qb matches Qa there and differs on
  // dim 1 too; Qc matches Qb on both differing dims. Qa absorbs Qb,
  // Qb absorbs Qc, so Qa must absorb Qc (Corollary 1).
  Dataset data(3);
  data.Append({0, 0, 0}).CheckOK();  // O
  data.Append({1, 0, 0}).CheckOK();  // Qa
  data.Append({1, 1, 0}).CheckOK();  // Qb
  data.Append({1, 1, 1}).CheckOK();  // Qc
  EXPECT_TRUE(Absorbs(data, 0, 1, 2));
  EXPECT_TRUE(Absorbs(data, 0, 2, 3));
  EXPECT_TRUE(Absorbs(data, 0, 1, 3));  // transitivity
  std::vector<ObjectId> survivors = AbsorbCandidates(data, 0, AllBut(data, 0));
  EXPECT_EQ(survivors, (std::vector<ObjectId>{1}));
}

TEST(AbsorptionTest, DisjointCandidatesAreUntouched) {
  Dataset data(2);
  data.Append({0, 0}).CheckOK();
  data.Append({1, 1}).CheckOK();
  data.Append({2, 2}).CheckOK();
  data.Append({3, 3}).CheckOK();
  std::vector<ObjectId> survivors = AbsorbCandidates(data, 0, AllBut(data, 0));
  EXPECT_EQ(survivors.size(), 3u);
}

TEST(AbsorptionTest, NeverDropsTheStrongestThreat) {
  // The absorber (the candidate whose dominating event contains the
  // others) must survive.
  Dataset data(2);
  data.Append({0, 0}).CheckOK();   // O
  data.Append({1, 0}).CheckOK();   // absorber: differs on dim 0 only
  data.Append({1, 1}).CheckOK();   // absorbed
  data.Append({1, 2}).CheckOK();   // absorbed
  std::vector<ObjectId> survivors = AbsorbCandidates(data, 0, AllBut(data, 0));
  EXPECT_EQ(survivors, (std::vector<ObjectId>{1}));
}

TEST(AbsorptionTest, PropertyNeverChangesExactAnswer) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Dataset data = RandomSmallDataset(seed, 9, 2, 3);
    RationalPreferenceModel model = UnanimousHalfRational(data);
    RationalOracle oracle(model);
    for (ObjectId target = 0; target < 3; ++target) {
      std::vector<ObjectId> all = AllBut(data, target);
      std::vector<ObjectId> survivors = AbsorbCandidates(data, target, all);
      EXPECT_LE(survivors.size(), all.size());
      Rational before =
          ExactSkylineProbability(data, target, all, oracle).value();
      Rational after =
          ExactSkylineProbability(data, target, survivors, oracle).value();
      EXPECT_EQ(before, after) << "seed=" << seed << " target=" << target;
    }
  }
}

TEST(AbsorptionTest, EmptyCandidateList) {
  Dataset data = Example1Dataset();
  std::vector<ObjectId> none;
  EXPECT_TRUE(AbsorbCandidates(data, 0, none).empty());
}

/// The filter by its definition, in O(n^2): the candidates that are not
/// null dominators under \p model (none are without one) and that no
/// other such candidate absorbs, in candidate order. On a dataset without
/// duplicates absorption is a strict partial order, so these are exactly
/// the minimal elements the filter keeps.
std::vector<ObjectId> ReferenceFilter(const Dataset& data, ObjectId target,
                                      std::span<const ObjectId> candidates,
                                      const PreferenceModel* model,
                                      AbsorptionStats* stats) {
  auto is_null = [&](ObjectId id) {
    if (model == nullptr) return false;
    for (DimensionId j = 0; j < data.dimensions(); ++j) {
      const ValueId v = data.value(id, j);
      const ValueId o = data.value(target, j);
      if (v != o && model->LessEq(j, v, o) == 0.0) return true;
    }
    return false;
  };
  std::vector<ObjectId> live;
  for (ObjectId id : candidates) {
    if (!is_null(id)) live.push_back(id);
  }
  std::vector<ObjectId> kept;
  for (ObjectId id : live) {
    if (std::none_of(live.begin(), live.end(), [&](ObjectId other) {
          return Absorbs(data, target, other, id);
        })) {
      kept.push_back(id);
    }
  }
  stats->input_candidates = candidates.size();
  stats->pruned = candidates.size() - live.size();
  stats->absorbed = live.size() - kept.size();
  return kept;
}

struct FilterInstance {
  std::string name;
  Dataset data{1};
  std::unique_ptr<PreferenceModel> base;  // owned base of a wrapper model
  std::unique_ptr<PreferenceModel> model;
};

std::vector<FilterInstance> FilterInstances() {
  std::vector<FilterInstance> out;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    FilterInstance uniform;
    uniform.name = "uniform seed " + std::to_string(seed);
    uniform.data = RandomSmallDataset(seed, 120, 4, 4);
    uniform.model = std::make_unique<HashedPreferenceModel>(
        seed, HashedPreferenceModel::Style::kCertainOrder);
    out.push_back(std::move(uniform));
  }
  FilterInstance zipf;
  zipf.name = "block-zipf";
  BlockZipfOptions gen;
  gen.objects = 300;
  gen.dimensions = 4;
  gen.block_size = 6;
  gen.values_per_block = 3;
  gen.seed = 9;
  zipf.data = GenerateBlockZipf(gen).value();
  zipf.base = std::make_unique<HashedPreferenceModel>(
      9, HashedPreferenceModel::Style::kTotalUniform);
  zipf.model = std::make_unique<BlockLocalPreferenceModel>(
      *zipf.base, gen.values_per_block);
  out.push_back(std::move(zipf));
  for (std::size_t d : {4u, 5u}) {
    FilterInstance nursery;
    nursery.name = "nursery d=" + std::to_string(d);
    nursery.data = GenerateNurseryProjection(d).value().dataset;
    nursery.model = std::make_unique<HashedPreferenceModel>(
        d, HashedPreferenceModel::Style::kCertainOrder);
    out.push_back(std::move(nursery));
  }
  return out;
}

void ExpectSameStats(const AbsorptionStats& a, const AbsorptionStats& b) {
  EXPECT_EQ(a.input_candidates, b.input_candidates);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.absorbed, b.absorbed);
}

TEST(AbsorptionTest, PropertyFilterMatchesItsDefinition) {
  for (const FilterInstance& inst : FilterInstances()) {
    SCOPED_TRACE(inst.name);
    const Dataset& data = inst.data;
    const ValuePostings postings(data);
    Rng rng(data.size());
    std::size_t pruned = 0;
    std::size_t absorbed = 0;
    const std::size_t stride = std::max<std::size_t>(1, data.size() / 40);
    for (ObjectId t = 0; t < data.size(); t += stride) {
      SCOPED_TRACE(::testing::Message() << "target " << t);
      const std::vector<ObjectId> all = AllBut(data, t);
      std::vector<ObjectId> shuffled = all;
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
      }
      const PreferenceModel* models[] = {nullptr, inst.model.get()};
      for (const PreferenceModel* model : models) {
        const NullPairTest null_test =
            model == nullptr ? NullPairTest()
                             : NullPairTestOf(DoubleOracle(*model));
        AbsorptionStats expected_stats;
        const std::vector<ObjectId> expected =
            ReferenceFilter(data, t, all, model, &expected_stats);
        pruned += expected_stats.pruned;
        absorbed += expected_stats.absorbed;

        AbsorptionStats stats;
        EXPECT_EQ(FilterCandidates(data, t, all, null_test, &stats),
                  expected);
        ExpectSameStats(stats, expected_stats);
        EXPECT_EQ(
            FilterAllCandidatesIndexed(data, t, postings, null_test, &stats),
            expected);
        ExpectSameStats(stats, expected_stats);

        // Order-independence: a shuffled candidate span keeps the same
        // set (in its own order) with the same counts.
        std::vector<ObjectId> from_shuffled =
            FilterCandidates(data, t, shuffled, null_test, &stats);
        std::sort(from_shuffled.begin(), from_shuffled.end());
        EXPECT_EQ(from_shuffled, expected);
        ExpectSameStats(stats, expected_stats);
      }
    }
    // Both filter stages had work to do on this instance.
    EXPECT_GT(pruned, 0u);
    EXPECT_GT(absorbed, 0u);
  }
}

}  // namespace
}  // namespace skypref
