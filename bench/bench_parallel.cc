// Extension bench — thread-parallel solver variants (src/core/parallel.h).
//
// Det+ parallelizes over Theorem-4 groups, sampling over fixed world
// blocks; results are bit-identical to the serial path for every thread
// count (asserted in tests; here we measure the scaling).

#include "bench_util.h"

namespace {

using namespace skypref;
using namespace skypref::bench;

void BM_Parallel_DetPlus(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  Dataset data = GenerateBlockZipf(BlockZipfConfig(20000, 5)).value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  ThreadPool pool(threads);
  ExactOptions options;
  options.prune_zero = false;  // as published
  std::vector<ObjectId> targets = SampleTargets(data.size(), 4);
  double sky = 0.0;
  for (auto _ : state) {
    for (ObjectId target : targets) {
      sky = ParallelExactSkylineProbability(data, target, prefs, pool,
                                            options)
                .value();
      Keep(sky);
    }
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["sky_last"] = sky;
}

void BM_Parallel_AllWorlds(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  BlockZipfOptions gen = BlockZipfConfig(1000, 3);
  gen.block_size = 10;
  Dataset data = GenerateBlockZipf(gen).value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  ThreadPool pool(threads);
  SolverOptions options;
  options.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
  options.monte_carlo.samples = 2000;
  options.monte_carlo.seed = 7;
  double checksum = 0.0;
  for (auto _ : state) {
    auto estimates =
        BatchMonteCarloSkylineProbabilities(data, prefs, pool, options)
            .value();
    checksum = 0.0;
    for (double estimate : estimates) checksum += estimate;
    Keep(checksum);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["expected_skyline_objects"] = checksum;
}

// Sam thread scaling: one target, worlds fanned out in fixed blocks over
// the pool. skyline_worlds is exported so runs at different arg values
// can be diffed for the bit-identity contract.
void BM_Parallel_BlockSam(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  Dataset data = GenerateBlockZipf(BlockZipfConfig(2000, 3)).value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  ThreadPool pool(threads);
  MonteCarloOptions options;
  options.samples = FullScale() ? 2000000 : 200000;
  options.seed = 7;
  MonteCarloResult result;
  for (auto _ : state) {
    result =
        BlockMonteCarloSkylineProbability(data, 0, prefs, pool, options)
            .value();
    Keep(result.skyline_worlds);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["skyline_worlds"] =
      static_cast<double>(result.skyline_worlds);
  state.counters["sky_last"] = result.estimate;
}

// World-shared batch Sam: every target estimated from the same sampled
// worlds, one ternary draw per distinct value pair per world.
void BM_Parallel_BatchSam(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  Dataset data = GenerateBlockZipf(BlockZipfConfig(600, 3)).value();
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  ThreadPool pool(threads);
  SolverOptions options;
  options.monte_carlo.samples = FullScale() ? 100000 : 10000;
  options.monte_carlo.seed = 7;
  BatchSamStats stats;
  double checksum = 0.0;
  for (auto _ : state) {
    auto estimates =
        BatchMonteCarloSkylineProbabilities(data, prefs, pool, options,
                                            &stats)
            .value();
    checksum = 0.0;
    for (double estimate : estimates) checksum += estimate;
    Keep(checksum);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["pair_draws"] = static_cast<double>(stats.pair_draws);
  state.counters["expected_skyline_objects"] = checksum;
}

BENCHMARK(BM_Parallel_DetPlus)
    ->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Parallel_AllWorlds)
    ->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Parallel_BlockSam)
    ->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Parallel_BatchSam)
    ->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Extension: thread scaling of Det+ (per-group), "
              "bit-sliced all-objects sampling and block Sam "
              "(per-world-block); arg = worker threads, 0 = inline ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
