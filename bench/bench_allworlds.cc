// Extension bench — pricing EVERY object's skyline probability.
//
// The paper's conclusion names the naive approach (run Algorithm 2 once
// per object) and leaves better probabilistic-skyline evaluation as
// future work. This bench compares:
//
//   * per-object Sam: n independent estimator runs, m worlds each;
//   * shared worlds:  one stream of m worlds scoring all n objects at
//     once — the bit-sliced batch sampler (src/core/sam_bitslice.h) on
//     one thread, the engine behind ProbabilisticSkyline/TopKSkyline.
//
// Both see m worlds per object, so their errors are comparable; the
// shared-world pass avoids re-sorting and re-sampling per target and is
// the clear winner as n grows.

#include <cmath>

#include "bench_util.h"

namespace {

using namespace skypref;
using namespace skypref::bench;

constexpr std::uint64_t kWorlds = 1000;

// The shared-world estimator: bit-sliced batch, inline pool.
SolverOptions SharedWorldOptions(std::uint64_t worlds, std::uint64_t seed) {
  SolverOptions options;
  options.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
  options.monte_carlo.samples = worlds;
  options.monte_carlo.seed = seed;
  return options;
}

Dataset MakeData(std::size_t objects) {
  BlockZipfOptions options = BlockZipfConfig(objects, 3);
  options.block_size = 10;
  options.values_per_block = 6;
  return GenerateBlockZipf(options).value();
}

void BM_AllObjects_PerObjectSam(benchmark::State& state) {
  Dataset data = MakeData(static_cast<std::size_t>(state.range(0)));
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  MonteCarloOptions options;
  options.samples = kWorlds;
  double checksum = 0.0;
  for (auto _ : state) {
    checksum = 0.0;
    for (ObjectId target = 0; target < data.size(); ++target) {
      options.seed = target + 1;
      checksum +=
          MonteCarloSkylineProbability(data, target, prefs, options)
              .value()
              .estimate;
    }
    Keep(checksum);
  }
  state.counters["expected_skyline_objects"] = checksum;
}

void BM_AllObjects_SharedWorlds(benchmark::State& state) {
  Dataset data = MakeData(static_cast<std::size_t>(state.range(0)));
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  ThreadPool pool(0);
  const SolverOptions options = SharedWorldOptions(kWorlds, 77);
  double checksum = 0.0;
  for (auto _ : state) {
    auto estimates =
        BatchMonteCarloSkylineProbabilities(data, prefs, pool, options)
            .value();
    checksum = 0.0;
    for (double estimate : estimates) checksum += estimate;
    Keep(checksum);
  }
  state.counters["expected_skyline_objects"] = checksum;
}

void BM_AllObjects_SharedWorldsError(benchmark::State& state) {
  // Accuracy check against Det+ on a size where exact is immediate.
  Dataset data = MakeData(200);
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  auto solver = SkylineSolver::Create(data, prefs).value();
  ThreadPool pool(0);
  const SolverOptions options =
      SharedWorldOptions(static_cast<std::uint64_t>(state.range(0)), 31);
  double max_error = 0.0;
  for (auto _ : state) {
    auto estimates =
        BatchMonteCarloSkylineProbabilities(data, prefs, pool, options)
            .value();
    max_error = 0.0;
    for (ObjectId i = 0; i < data.size(); ++i) {
      double truth = solver.Exact(i).value();
      max_error = std::max(max_error, std::abs(estimates[i] - truth));
    }
    Keep(max_error);
  }
  state.counters["max_abs_error"] = max_error;
}

BENCHMARK(BM_AllObjects_PerObjectSam)
    ->Arg(100)->Arg(300)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_AllObjects_SharedWorlds)
    ->Arg(100)->Arg(300)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_AllObjects_SharedWorldsError)
    ->Arg(500)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Extension: probabilistic skyline over all objects — "
              "per-object Sam vs shared-world estimation ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
