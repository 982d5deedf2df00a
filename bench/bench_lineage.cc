// Extension bench — the lineage (Shannon-expansion) exact engine vs
// Algorithm 1's subset enumeration, and the Det+ engine choice between
// them.
//
// Algorithm 1 is exponential in the CANDIDATE count; the lineage DP is
// bounded by the reachable (variable, alive-set) level entries, which dense
// value sharing keeps small. On uniform 5-d data with 10 values per
// dimension the variable count is at most 45 regardless of n, so the DP
// computes exactly what Figure 9a declares hopeless beyond n ~ 25.
// The flip side is shown too: on block-Zipf groups (little sharing,
// variables ~ n*d) the classic subset DFS remains the right tool.
//
// Two sections justify the engine choice of src/core/lineage_dp.h:
//  * BM_Lineage_Order — the greedy min-frontier variable order against
//    the earlier popcount-descending order, on the same groups;
//  * BM_Crossover_{Uniform,BlockZipf} — one m-candidate set per instance
//    (m = 8..24) through the subset DFS and through the DP, with the
//    share of instances where the state-bound rule picks the DP and
//    where the DP is actually faster.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <numeric>
#include <span>

#include "bench_util.h"

namespace {

using namespace skypref;
using namespace skypref::bench;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void BM_Lineage_Uniform(benchmark::State& state) {
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  std::vector<ObjectId> targets = SampleTargets(data.size(), 8);

  double elapsed_ms = 0.0;
  LineageDpStats stats;
  std::uint64_t total_states = 0;
  std::uint64_t peak_level = 0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      auto start = std::chrono::steady_clock::now();
      auto sky = LineageExactWithPreprocessing(data, target, prefs, {},
                                               &stats);
      elapsed_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      if (!sky.ok()) {
        state.SkipWithError(sky.status().ToString().c_str());
        return;
      }
      total_states += stats.states;
      peak_level = std::max(peak_level, stats.peak_level_entries);
      Keep(sky.value());
    }
  }
  state.counters["per_target_ms"] =
      elapsed_ms / static_cast<double>(targets.size());
  state.counters["dp_states_per_target"] =
      static_cast<double>(total_states) /
      static_cast<double>(targets.size());
  state.counters["dp_peak_level_entries"] = static_cast<double>(peak_level);
}

void BM_SubsetDfs_Uniform(benchmark::State& state) {
  // The same instances through Algorithm 1 on Det+'s groups (the subset
  // DFS forced on every group, as published), with the usual cutoff —
  // expected to DNF beyond n ~ 25.
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  DoubleOracle oracle(prefs);
  std::vector<ObjectId> targets = SampleTargets(data.size(), 8);
  ExactOptions options = PaperExactOptions(
      ExactCutoffSeconds() / static_cast<double>(targets.size()));
  double elapsed_ms = 0.0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      auto start = std::chrono::steady_clock::now();
      double sky = 1.0;
      for (const auto& group :
           PlanTarget(data, target, true, NullPairTestOf(oracle))) {
        auto group_sky =
            ExactSkylineProbability(data, target, group, oracle, options);
        if (!group_sky.ok()) {
          state.counters["dnf"] = 1;
          state.SkipWithError(
              ("cutoff: " + group_sky.status().ToString()).c_str());
          return;
        }
        sky *= group_sky.value();
      }
      elapsed_ms += MsSince(start);
      Keep(sky);
    }
  }
  state.counters["per_target_ms"] =
      elapsed_ms / static_cast<double>(targets.size());
}

void BM_Lineage_BlockZipfGroups(benchmark::State& state) {
  // Little value sharing: the DP's state space approaches 2^(group size)
  // and the subset DFS is just as good — the honest complementary case.
  Dataset data = GenerateBlockZipf(BlockZipfConfig(
                     static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  std::vector<ObjectId> targets = SampleTargets(data.size(), 8);
  double elapsed_ms = 0.0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      auto start = std::chrono::steady_clock::now();
      auto sky = LineageExactWithPreprocessing(data, target, prefs);
      elapsed_ms += std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
      if (!sky.ok()) {
        state.SkipWithError(sky.status().ToString().c_str());
        return;
      }
      Keep(sky.value());
    }
  }
  state.counters["per_target_ms"] =
      elapsed_ms / static_cast<double>(targets.size());
}

/// The order the DP used before the greedy min-frontier one: variables
/// by how many candidates require them, descending, ties in first
/// appearance. Built here, from the greedy order's masks.
internal::LineageOrder PopcountOrder(const internal::LineageOrder& greedy,
                                     std::size_t pair_count) {
  std::vector<std::uint64_t> mask(pair_count, 0);
  for (std::size_t i = 0; i < greedy.pairs.size(); ++i) {
    mask[greedy.pairs[i]] = greedy.masks[i];
  }
  std::vector<std::uint32_t> pairs(pair_count);
  std::iota(pairs.begin(), pairs.end(), std::uint32_t{0});
  std::stable_sort(pairs.begin(), pairs.end(),
                   [&mask](std::uint32_t a, std::uint32_t b) {
                     return std::popcount(mask[a]) > std::popcount(mask[b]);
                   });
  internal::LineageOrder order;
  order.alive = greedy.alive;
  for (std::uint32_t p : pairs) {
    order.pairs.push_back(p);
    order.masks.push_back(mask[p]);
  }
  return order;
}

void BM_Lineage_Order(benchmark::State& state) {
  // Every Det+ group of >= kLineageMinCandidates candidates of 8 targets,
  // solved by the DP under both orders; the values must agree to 1e-12.
  Dataset data = GenerateUniform(
                     UniformConfig(static_cast<std::size_t>(state.range(0)), 5))
                     .value();
  HashedPreferenceModel prefs = PaperPreferences();
  DoubleOracle oracle(prefs);
  std::vector<ObjectId> targets = SampleTargets(data.size(), 8);
  double greedy_ms = 0.0, popcount_ms = 0.0;
  std::uint64_t greedy_states = 0, popcount_states = 0, groups = 0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      for (const auto& group :
           PlanTarget(data, target, true, NullPairTestOf(oracle))) {
        if (group.size() < kLineageMinCandidates) continue;
        auto instance = internal::BuildFlatInstance(
            data, target, std::span<const ObjectId>(group), oracle);
        auto start = std::chrono::steady_clock::now();
        internal::LineageOrder greedy = internal::OrderLineageVariables(
            instance.pair_ids, instance.offsets, instance.pair_count());
        LineageDpStats stats;
        double a = internal::SolveLineage<double>(greedy, instance.pair_prob,
                                                  {}, {}, &stats)
                       .value();
        greedy_ms += MsSince(start);
        greedy_states += stats.states;
        start = std::chrono::steady_clock::now();
        internal::LineageOrder popcount =
            PopcountOrder(greedy, instance.pair_count());
        double b = internal::SolveLineage<double>(
                       popcount, instance.pair_prob, {}, {}, &stats)
                       .value();
        popcount_ms += MsSince(start);
        popcount_states += stats.states;
        ++groups;
        if (std::fabs(a - b) > 1e-12) {
          state.SkipWithError("the two orders disagree");
          return;
        }
        Keep(a);
      }
    }
  }
  const double per_target = static_cast<double>(targets.size());
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["greedy_ms_per_target"] = greedy_ms / per_target;
  state.counters["popcount_ms_per_target"] = popcount_ms / per_target;
  state.counters["greedy_states_per_target"] =
      static_cast<double>(greedy_states) / per_target;
  state.counters["popcount_states_per_target"] =
      static_cast<double>(popcount_states) / per_target;
}

/// One m-candidate set per instance: all objects but the target (object
/// 0) of an (m + 1)-object dataset, so the set size is exactly m.
void RunCrossover(benchmark::State& state, bool block_zipf) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t instances = m <= 20 ? 8 : 4;
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel block_prefs = BlockPrefs(base);
  const PreferenceModel& prefs =
      block_zipf ? static_cast<const PreferenceModel&>(block_prefs) : base;
  DoubleOracle oracle(prefs);
  double dfs_ms = 0.0, dp_ms = 0.0;
  std::uint64_t states = 0, subsets = 0;
  std::size_t rule_picks_dp = 0, dp_faster = 0, rule_right = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < instances; ++i) {
      Dataset data(1);
      if (block_zipf) {
        BlockZipfOptions gen = BlockZipfConfig(m + 1, 5);
        gen.block_size = m + 1;
        gen.seed = 100 + i;
        data = GenerateBlockZipf(gen).value();
      } else {
        UniformOptions gen = UniformConfig(m + 1, 5);
        gen.seed = 100 + i;
        data = GenerateUniform(gen).value();
      }
      std::vector<ObjectId> candidates(m);
      std::iota(candidates.begin(), candidates.end(), ObjectId{1});
      auto start = std::chrono::steady_clock::now();
      ExactStats exact_stats;
      double dfs = ExactSkylineProbability(data, 0, candidates, oracle, {},
                                           &exact_stats)
                       .value();
      const double one_dfs = MsSince(start);
      start = std::chrono::steady_clock::now();
      LineageDpStats dp_stats;
      double dp = LineageExactSkylineProbability(data, 0, candidates, oracle,
                                                 {}, {}, &dp_stats)
                      .value();
      const double one_dp = MsSince(start);
      if (std::fabs(dfs - dp) > 1e-12) {
        state.SkipWithError("DFS and DP disagree");
        return;
      }
      auto instance = internal::BuildFlatInstance(
          data, 0, std::span<const ObjectId>(candidates), oracle);
      const bool picks_dp = internal::LineageIsCheaper(
          internal::OrderLineageVariables(instance.pair_ids, instance.offsets,
                                          instance.pair_count()),
          m);
      rule_picks_dp += picks_dp ? 1 : 0;
      dp_faster += one_dp < one_dfs ? 1 : 0;
      rule_right += picks_dp == (one_dp < one_dfs) ? 1 : 0;
      dfs_ms += one_dfs;
      dp_ms += one_dp;
      states += dp_stats.states;
      subsets += exact_stats.subsets_visited;
    }
  }
  const double n = static_cast<double>(instances);
  state.counters["dfs_ms"] = dfs_ms / n;
  state.counters["dp_ms"] = dp_ms / n;
  state.counters["dfs_subsets"] = static_cast<double>(subsets) / n;
  state.counters["dp_states"] = static_cast<double>(states) / n;
  state.counters["rule_picks_dp"] = static_cast<double>(rule_picks_dp) / n;
  state.counters["dp_faster"] = static_cast<double>(dp_faster) / n;
  state.counters["rule_agrees"] = static_cast<double>(rule_right) / n;
}

void BM_Crossover_Uniform(benchmark::State& state) {
  RunCrossover(state, /*block_zipf=*/false);
}

void BM_Crossover_BlockZipf(benchmark::State& state) {
  RunCrossover(state, /*block_zipf=*/true);
}

BENCHMARK(BM_Lineage_Uniform)
    ->Arg(20)->Arg(30)->Arg(40)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_SubsetDfs_Uniform)
    ->Arg(20)->Arg(30)->Arg(40)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Lineage_BlockZipfGroups)
    ->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Lineage_Order)
    ->Arg(22)->Arg(30)->Arg(40)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Crossover_Uniform)
    ->DenseRange(8, 24, 2)->Arg(13)->Arg(15)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Crossover_BlockZipf)
    ->DenseRange(8, 24, 2)->Arg(13)->Arg(15)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Extension: lineage (Shannon-expansion) exact engine vs "
              "Algorithm 1 on dense uniform data ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
