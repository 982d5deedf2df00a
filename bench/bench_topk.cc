// Extension bench — the top-k race (src/core/topk_race.h), the paper's
// named future-work direction (generic top-k evaluation a la Re/Dalvi/
// Suciu on top of sampling).
//
// Compared against the fixed-budget route (estimate every object to the
// union-bound precision, then sort): the race settles clearly-in and
// clearly-out objects early and focuses worlds on the boundary, so its
// total evaluations are far below worlds * n.

#include "bench_util.h"

namespace {

using namespace skypref;
using namespace skypref::bench;

Dataset MakeData(std::size_t objects) {
  BlockZipfOptions options = BlockZipfConfig(objects, 3);
  options.block_size = 10;
  options.values_per_block = 6;
  return GenerateBlockZipf(options).value();
}

void BM_TopK_Race(benchmark::State& state) {
  Dataset data = MakeData(static_cast<std::size_t>(state.range(0)));
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  TopKRaceOptions options;
  options.seed = 5;
  options.epsilon_floor = 0.02;

  TopKRaceResult result;
  for (auto _ : state) {
    result = TopKSkylineRace(data, prefs, 10, options).value();
    Keep(result.worlds);
  }
  state.counters["worlds"] = static_cast<double>(result.worlds);
  state.counters["evaluations"] = static_cast<double>(result.evaluations);
  state.counters["full_scan_equivalent"] =
      static_cast<double>(result.worlds) * static_cast<double>(data.size());
  state.counters["resolved"] = result.resolved ? 1.0 : 0.0;
}

void BM_TopK_FixedBudget(benchmark::State& state) {
  Dataset data = MakeData(static_cast<std::size_t>(state.range(0)));
  HashedPreferenceModel base = PaperPreferences();
  BlockLocalPreferenceModel prefs = BlockPrefs(base);
  ThreadPool pool(0);
  SolverOptions options;
  options.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
  // Comparable to the race's epsilon_floor / 2.
  options.monte_carlo.epsilon = 0.01;
  options.monte_carlo.delta = 0.01;
  options.monte_carlo.seed = 5;

  std::size_t count = 0;
  for (auto _ : state) {
    auto top = TopKSkyline(data, prefs, 10, pool, options).value();
    count = top.size();
    Keep(count);
  }
  state.counters["worlds"] = static_cast<double>(AllWorldsSampleSize(
      options.monte_carlo.epsilon, options.monte_carlo.delta, data.size()));
}

BENCHMARK(BM_TopK_Race)
    ->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_TopK_FixedBudget)
    ->Arg(200)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== Extension: top-k skyline-probability race vs "
              "fixed-budget estimation (k=10) ==\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
