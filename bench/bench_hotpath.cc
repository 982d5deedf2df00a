/// The canonical hot-path perf harness: emits BENCH_exact.json, the
/// machine-readable perf trajectory of the exact engine.
///
/// The exact-engine measurements, all at quick scale by default
/// (SKYPREF_BENCH_SCALE=full enlarges them; numbered as the section
/// comments below):
///
///   1. flatten     — one Det solve, lookup engine vs flattened engine
///                    on identical inputs (subsets/sec and speedup);
///   3. batch       — all-objects exact solve, per-target SkylineSolver
///                    loop vs BatchExactSkylineProbabilities;
///   4. resilience  — the same Det solve with and without an armed
///                    CancelToken + deadline (cost of cooperative
///                    cancellation polls in the DFS hot loop);
///   4b. chaos_quiet — the same Det solve with every failpoint site
///                    armed on a never-firing schedule (cost of the
///                    armed-consult slow path; ~0 in release builds
///                    where the sites compile out);
///   4c. plan       — per-target Det+ planning on Nursery-8, through one
///                    whole-dataset ValuePostings (the index
///                    SkylineSolver::Create builds) vs the free PlanTarget
///                    that indexes per call, groups asserted identical.
///
/// Every section cross-checks bit-identity so a perf number can never
/// quietly come from a wrong answer. The binary is plain chrono + JSON —
/// no google-benchmark — so CI can upload the artifact as-is.
///
/// A second artifact, BENCH_sam.json, tracks the Monte-Carlo engine:
///
///   5. sam_scaling — one block-Sam solve across 1/2/4/8-thread pools
///                    (worlds/sec curve), cross-checked bit-identical to
///                    the single-thread run and timed against the serial
///                    Sam engine on the same seed/sample budget;
///   6. batch_sam   — all-objects estimation, per-target block-Sam loop
///                    vs BatchMonteCarloSkylineProbabilities (wall time
///                    and the pair_draws world-sharing ratio).
///
/// A third artifact, BENCH_sam_bitslice.json, tracks the bit-sliced
/// engine against the scalar block engine:
///
///   7. bitslice    — single-thread worlds/sec of kBlock vs kBitSliced
///                    on the block-Zipf workload (the ≥8x tentpole
///                    number), a kBitSliced thread curve cross-checked
///                    bit-identical, and statistical agreement between
///                    the two engines' estimates; its batch row times the
///                    all-objects bit-sliced batch against the kBlock
///                    batch at equal worlds, bit-identity asserted across
///                    1/2/4-worker pools.
///
/// Usage: bench_hotpath [exact.json] [sam.json] [sam_bitslice.json]
///        (defaults BENCH_exact.json / BENCH_sam.json /
///         BENCH_sam_bitslice.json)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/absorption.h"
#include "src/core/exact.h"
#include "src/core/monte_carlo.h"
#include "src/core/oracles.h"
#include "src/core/parallel.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_parallel.h"
#include "src/core/solver.h"
#include "src/model/preference_model.h"
#include "src/util/failpoint.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/workload/block_zipf_generator.h"
#include "src/workload/nursery.h"
#include "src/workload/uniform_generator.h"

namespace skypref::bench {
namespace {

bool FullScale() {
  const char* scale = std::getenv("SKYPREF_BENCH_SCALE");
  return scale != nullptr && std::string(scale) == "full";
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-reps wall time of one action (reps small; the workloads are
/// deterministic, so best-of filters scheduler noise).
template <typename Fn>
double TimeBest(int reps, const Fn& fn) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    double start = Now();
    fn();
    double elapsed = Now() - start;
    if (best < 0.0 || elapsed < best) best = elapsed;
  }
  return best;
}

std::string FormatDouble(double value) {
  std::ostringstream out;
  out.precision(6);
  out << value;
  return out.str();
}

/// Section 1: the flattening ablation. Large value domains make every
/// subset pay d oracle lookups on the old path (no pair is ever shared),
/// which is exactly the regime the pair table removes.
std::string BenchFlatten() {
  UniformOptions gen;
  gen.objects = FullScale() ? 25 : 21;
  gen.dimensions = 6;
  gen.values_per_dimension = 50;
  gen.seed = 7;
  Dataset data = GenerateUniform(gen).value();
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);

  ExactOptions lookup;
  lookup.engine = ExactOptions::Engine::kLookup;
  lookup.prune_zero = false;  // fixed subset count for clean subsets/sec
  ExactOptions flat = lookup;
  flat.engine = ExactOptions::Engine::kFlat;

  double lookup_value = 0.0, flat_value = 0.0;
  ExactStats stats;
  const int reps = 3;
  double lookup_seconds = TimeBest(reps, [&] {
    lookup_value = ExactSkylineProbability(data, 0, model, lookup, &stats)
                       .value();
  });
  double flat_seconds = TimeBest(reps, [&] {
    flat_value = ExactSkylineProbability(data, 0, model, flat, &stats)
                     .value();
  });
  SKYPREF_CHECK(lookup_value == flat_value);  // bit-identity is the contract

  double subsets = static_cast<double>(stats.subsets_visited);
  std::ostringstream json;
  json << "  \"flatten\": {\n"
       << "    \"objects\": " << gen.objects << ",\n"
       << "    \"dimensions\": " << gen.dimensions << ",\n"
       << "    \"subsets\": " << stats.subsets_visited << ",\n"
       << "    \"lookup_seconds\": " << FormatDouble(lookup_seconds) << ",\n"
       << "    \"flat_seconds\": " << FormatDouble(flat_seconds) << ",\n"
       << "    \"lookup_subsets_per_sec\": "
       << FormatDouble(subsets / lookup_seconds) << ",\n"
       << "    \"flat_subsets_per_sec\": "
       << FormatDouble(subsets / flat_seconds) << ",\n"
       << "    \"speedup\": " << FormatDouble(lookup_seconds / flat_seconds)
       << ",\n"
       << "    \"bit_identical\": true\n"
       << "  }";
  return json.str();
}

/// Section 3: all-objects throughput — the per-target SkylineSolver loop
/// against the shared-preprocessing batch solver on the same pool count.
std::string BenchBatch() {
  BlockZipfOptions gen;
  gen.objects = FullScale() ? 2000 : 400;
  gen.dimensions = 3;
  gen.block_size = 12;
  gen.values_per_block = 6;
  gen.theta = 1.0;
  gen.seed = 7;
  Dataset data = GenerateBlockZipf(gen).value();
  HashedPreferenceModel base(2013,
                             HashedPreferenceModel::Style::kTotalUniform);
  BlockLocalPreferenceModel model(base, gen.values_per_block);

  auto solver = SkylineSolver::Create(data, model).value();
  std::vector<double> serial(data.size(), 0.0);
  double serial_seconds = TimeBest(2, [&] {
    for (ObjectId target = 0; target < data.size(); ++target) {
      serial[target] = solver.Exact(target).value();
    }
  });

  ThreadPool pool(ThreadPool::DefaultThreads());
  std::vector<double> batch;
  BatchExactStats stats;
  double batch_seconds = TimeBest(2, [&] {
    batch = BatchExactSkylineProbabilities(data, model, pool, {}, &stats)
                .value();
  });
  bool bit_identical = batch == serial;
  SKYPREF_CHECK(bit_identical);

  double targets = static_cast<double>(data.size());
  std::ostringstream json;
  json << "  \"batch_all_objects\": {\n"
       << "    \"objects\": " << data.size() << ",\n"
       << "    \"dimensions\": " << gen.dimensions << ",\n"
       << "    \"pool_threads\": " << pool.thread_count() << ",\n"
       << "    \"per_target_seconds\": " << FormatDouble(serial_seconds)
       << ",\n"
       << "    \"batch_seconds\": " << FormatDouble(batch_seconds) << ",\n"
       << "    \"per_target_targets_per_sec\": "
       << FormatDouble(targets / serial_seconds) << ",\n"
       << "    \"batch_targets_per_sec\": "
       << FormatDouble(targets / batch_seconds) << ",\n"
       << "    \"speedup\": " << FormatDouble(serial_seconds / batch_seconds)
       << ",\n"
       << "    \"distinct_pair_probs\": " << stats.distinct_pair_probs
       << ",\n"
       << "    \"subsets_visited\": " << stats.subsets_visited << ",\n"
       << "    \"bit_identical\": true\n"
       << "  }";
  return json.str();
}

/// Section 4: resilience overhead. The cancellation/deadline polls in
/// the DFS hot loop are always compiled in, so the measurable cost is
/// armed-vs-unarmed: a solve with no token and no deadline (the polls
/// reduce to a null check every 0xfff visits) against the same solve
/// carrying a live CancelToken and a far-future deadline (every poll
/// does the atomic load and clock comparison). The ladder's contract is
/// that arming costs < ~2% on a Det workload.
std::string BenchResilience() {
  UniformOptions gen;
  gen.objects = FullScale() ? 25 : 21;
  gen.dimensions = 6;
  gen.values_per_dimension = 50;
  gen.seed = 7;
  Dataset data = GenerateUniform(gen).value();
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);

  ExactOptions unarmed;
  unarmed.engine = ExactOptions::Engine::kFlat;
  unarmed.prune_zero = false;  // fixed subset count for clean comparison
  ExactOptions armed = unarmed;
  armed.time_limit_seconds = 3600.0;  // never expires, always polled
  CancelToken token;
  armed.cancel = &token;

  double unarmed_value = 0.0, armed_value = 0.0;
  ExactStats stats;
  const int reps = 5;
  double unarmed_seconds = TimeBest(reps, [&] {
    unarmed_value =
        ExactSkylineProbability(data, 0, model, unarmed, &stats).value();
  });
  double armed_seconds = TimeBest(reps, [&] {
    armed_value =
        ExactSkylineProbability(data, 0, model, armed, &stats).value();
  });
  SKYPREF_CHECK(unarmed_value == armed_value);  // polls never change math

  double overhead_percent =
      100.0 * (armed_seconds - unarmed_seconds) / unarmed_seconds;
  std::ostringstream json;
  json << "  \"resilience_overhead\": {\n"
       << "    \"objects\": " << gen.objects << ",\n"
       << "    \"subsets\": " << stats.subsets_visited << ",\n"
       << "    \"unarmed_seconds\": " << FormatDouble(unarmed_seconds)
       << ",\n"
       << "    \"armed_seconds\": " << FormatDouble(armed_seconds) << ",\n"
       << "    \"overhead_percent\": " << FormatDouble(overhead_percent)
       << ",\n"
       << "    \"bit_identical\": true\n"
       << "  }";
  return json.str();
}

/// Section 4b: chaos-armed-but-quiet overhead. The chaos sweep's cost
/// model only holds if ARMING sites is cheap: a schedule that never
/// fires (kSingle at an unreachable hit ordinal) still pays the armed
/// slow path — registry snapshot plus one atomic increment per consult
/// — at every site the solve crosses. The contract is < ~2% on the Det
/// workload in failpoint builds; in release builds the macros compile
/// to `false` and the row documents the (near-zero) baseline with
/// failpoints_compiled_in = false.
std::string BenchChaosQuiet() {
  UniformOptions gen;
  gen.objects = FullScale() ? 25 : 21;
  gen.dimensions = 6;
  gen.values_per_dimension = 50;
  gen.seed = 7;
  Dataset data = GenerateUniform(gen).value();
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);

  ExactOptions options;
  options.engine = ExactOptions::Engine::kFlat;
  options.prune_zero = false;  // fixed subset count for clean comparison

  // Arm EVERY registered site with a schedule that can never fire: the
  // kSingle pattern matches one exact hit ordinal, and no solve reaches
  // 2^64 - 1 hits. Quiet and armed reps are interleaved (arming toggled
  // per rep) so both mins sample the same machine-noise distribution —
  // a sub-percent delta would otherwise drown on a shared runner.
  failpoint::Schedule never;
  never.kind = failpoint::FaultKind::kFail;
  never.pattern = failpoint::Schedule::Pattern::kSingle;
  never.n = ~std::uint64_t{0};
  double quiet_value = 0.0, armed_value = 0.0;
  ExactStats stats;
  const int reps = 15;
  double quiet_seconds = -1.0, armed_seconds = -1.0;
  for (int r = 0; r < reps; ++r) {
    failpoint::DisarmAll();
    double quiet = TimeBest(1, [&] {
      quiet_value =
          ExactSkylineProbability(data, 0, model, options, &stats).value();
    });
    if (quiet_seconds < 0.0 || quiet < quiet_seconds) quiet_seconds = quiet;
    for (const failpoint::KnownSite& site : failpoint::KnownSites()) {
      failpoint::ArmSchedule(site.name, never);
    }
    double armed = TimeBest(1, [&] {
      armed_value =
          ExactSkylineProbability(data, 0, model, options, &stats).value();
    });
    if (armed_seconds < 0.0 || armed < armed_seconds) armed_seconds = armed;
  }
  failpoint::DisarmAll();
  SKYPREF_CHECK(quiet_value == armed_value);  // quiet sites change no math

#if defined(SKYPREF_FAILPOINTS) && SKYPREF_FAILPOINTS
  const bool compiled_in = true;
#else
  const bool compiled_in = false;
#endif
  double overhead_percent =
      100.0 * (armed_seconds - quiet_seconds) / quiet_seconds;
  std::ostringstream json;
  json << "  \"chaos_armed_quiet\": {\n"
       << "    \"objects\": " << gen.objects << ",\n"
       << "    \"subsets\": " << stats.subsets_visited << ",\n"
       << "    \"sites_armed\": " << failpoint::KnownSites().size() << ",\n"
       << "    \"unarmed_seconds\": " << FormatDouble(quiet_seconds) << ",\n"
       << "    \"armed_seconds\": " << FormatDouble(armed_seconds) << ",\n"
       << "    \"overhead_percent\": " << FormatDouble(overhead_percent)
       << ",\n"
       << "    \"failpoints_compiled_in\": "
       << (compiled_in ? "true" : "false") << ",\n"
       << "    \"bit_identical\": true\n"
       << "  }";
  return json.str();
}

/// Section 4c: per-target Det+ planning (null prune, absorption,
/// partition) on the 12,960-object Nursery, over a seeded sample of
/// targets: once through a whole-dataset ValuePostings built up front, as
/// SkylineSolver::Create does, and once through the free PlanTarget that
/// builds its own per call. The groups must match target for target.
std::string BenchPlan() {
  const NurseryVariant nursery = GenerateNursery().value();
  const Dataset& data = nursery.dataset;
  HashedPreferenceModel model(2013,
                              HashedPreferenceModel::Style::kTotalUniform);
  const NullPairTest null_test = NullPairTestOf(DoubleOracle(model));
  const std::size_t count = FullScale() ? 1024 : 256;
  std::vector<ObjectId> targets;
  Rng rng(15);
  for (std::size_t i = 0; i < count; ++i) {
    targets.push_back(rng.NextBounded(data.size()));
  }

  const double index_seconds = TimeBest(3, [&] { ValuePostings built(data); });
  const ValuePostings postings(data);
  std::vector<std::vector<std::vector<ObjectId>>> indexed(count);
  double indexed_seconds = TimeBest(3, [&] {
    for (std::size_t i = 0; i < count; ++i) {
      indexed[i] = PlanTarget(data, postings, targets[i], true, null_test);
    }
  });
  std::vector<std::vector<std::vector<ObjectId>>> free_plans(count);
  double free_seconds = TimeBest(3, [&] {
    for (std::size_t i = 0; i < count; ++i) {
      free_plans[i] = PlanTarget(data, targets[i], true, null_test);
    }
  });
  SKYPREF_CHECK(indexed == free_plans);

  std::size_t groups = 0;
  for (const auto& plan : indexed) groups += plan.size();
  const double ms_per = 1e3 / static_cast<double>(count);
  std::ostringstream json;
  json << "  \"plan\": {\n"
       << "    \"objects\": " << data.size() << ",\n"
       << "    \"dimensions\": " << data.dimensions() << ",\n"
       << "    \"targets\": " << count << ",\n"
       << "    \"groups_per_target\": "
       << FormatDouble(static_cast<double>(groups) /
                       static_cast<double>(count))
       << ",\n"
       << "    \"index_build_ms\": " << FormatDouble(index_seconds * 1e3)
       << ",\n"
       << "    \"indexed_ms_per_target\": "
       << FormatDouble(indexed_seconds * ms_per) << ",\n"
       << "    \"free_ms_per_target\": "
       << FormatDouble(free_seconds * ms_per) << ",\n"
       << "    \"speedup\": " << FormatDouble(free_seconds / indexed_seconds)
       << ",\n"
       << "    \"identical_groups\": true\n"
       << "  }";
  return json.str();
}

/// Section 5: block-Sam thread scaling on one hard target. The dataset
/// is the BenchBatch block-Zipf workload, whose correlated blocks leave
/// large independence groups — exactly where Sam replaces Det+. The
/// estimate is checked bit-identical across pools (the block-seeding
/// contract) and the serial engine runs the same budget for reference.
std::string BenchSamScaling() {
  BlockZipfOptions gen;
  gen.objects = FullScale() ? 2000 : 400;
  gen.dimensions = 3;
  gen.block_size = 12;
  gen.values_per_block = 6;
  gen.theta = 1.0;
  gen.seed = 7;
  Dataset data = GenerateBlockZipf(gen).value();
  HashedPreferenceModel base(2013,
                             HashedPreferenceModel::Style::kTotalUniform);
  BlockLocalPreferenceModel model(base, gen.values_per_block);

  MonteCarloOptions options;
  options.samples = FullScale() ? 2000000 : 400000;
  options.seed = 7;

  double serial_value = 0.0;
  double serial_seconds = TimeBest(2, [&] {
    serial_value =
        MonteCarloSkylineProbability(data, 0, model, options)->estimate;
  });

  std::ostringstream json;
  json << "  \"sam_scaling\": {\n"
       << "    \"objects\": " << data.size() << ",\n"
       << "    \"samples\": " << options.samples << ",\n"
       << "    \"serial_engine_seconds\": " << FormatDouble(serial_seconds)
       << ",\n";
  double base_seconds = 0.0;
  std::uint64_t reference_worlds = 0;
  double block_estimate = 0.0;
  bool bit_identical = true;
  double worlds = static_cast<double>(options.samples);
  json << "    \"threads\": [\n";
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    ThreadPool pool(thread_counts[t]);
    MonteCarloResult result;
    double seconds = TimeBest(2, [&] {
      result =
          BlockMonteCarloSkylineProbability(data, 0, model, pool, options)
              .value();
    });
    if (t == 0) {
      reference_worlds = result.skyline_worlds;
      block_estimate = result.estimate;
      base_seconds = seconds;
    } else if (result.skyline_worlds != reference_worlds) {
      bit_identical = false;
    }
    json << "      {\"threads\": " << thread_counts[t]
         << ", \"seconds\": " << FormatDouble(seconds)
         << ", \"worlds_per_sec\": " << FormatDouble(worlds / seconds)
         << ", \"speedup_vs_1\": " << FormatDouble(base_seconds / seconds)
         << "}" << (t + 1 < thread_counts.size() ? "," : "") << "\n";
  }
  json << "    ],\n"
       << "    \"serial_vs_1_thread_block\": "
       << FormatDouble(serial_seconds / base_seconds) << ",\n"
       << "    \"serial_estimate\": " << FormatDouble(serial_value) << ",\n"
       << "    \"block_estimate\": " << FormatDouble(block_estimate) << ",\n"
       << "    \"bit_identical_across_threads\": "
       << (bit_identical ? "true" : "false") << "\n"
       << "  }";
  SKYPREF_CHECK(bit_identical);
  // Both engines estimate the same probability; their streams differ, so
  // agreement is statistical, not bit-exact. At these sample counts a
  // divergence past 0.02 means a broken sampler, not noise.
  SKYPREF_CHECK(std::abs(serial_value - block_estimate) < 0.02);
  return json.str();
}

/// Section 6: world sharing. The batch sampler draws each distinct value
/// pair once per world and reuses it for every target; the per-target
/// loop redraws. pair_draws counts both sides of that ledger exactly.
std::string BenchBatchSam() {
  BlockZipfOptions gen;
  gen.objects = FullScale() ? 600 : 150;
  gen.dimensions = 3;
  gen.block_size = 12;
  gen.values_per_block = 6;
  gen.theta = 1.0;
  gen.seed = 7;
  Dataset data = GenerateBlockZipf(gen).value();
  HashedPreferenceModel base(2013,
                             HashedPreferenceModel::Style::kTotalUniform);
  BlockLocalPreferenceModel model(base, gen.values_per_block);

  SolverOptions options;
  options.monte_carlo.samples = FullScale() ? 40000 : 10000;
  options.monte_carlo.seed = 7;
  ThreadPool pool(ThreadPool::DefaultThreads());

  std::uint64_t per_target_draws = 0;
  double per_target_seconds = TimeBest(2, [&] {
    per_target_draws = 0;
    for (ObjectId target = 0; target < data.size(); ++target) {
      per_target_draws +=
          BlockMonteCarloSkylineProbability(data, target, model, pool,
                                            options.monte_carlo)
              ->pair_draws;
    }
  });

  BatchSamStats stats;
  std::vector<double> batch;
  double batch_seconds = TimeBest(2, [&] {
    batch = BatchMonteCarloSkylineProbabilities(data, model, pool, options,
                                                &stats)
                .value();
  });
  SKYPREF_CHECK(batch.size() == data.size());

  double targets = static_cast<double>(data.size());
  std::ostringstream json;
  json << "  \"batch_sam\": {\n"
       << "    \"objects\": " << data.size() << ",\n"
       << "    \"samples\": " << options.monte_carlo.samples << ",\n"
       << "    \"pool_threads\": " << pool.thread_count() << ",\n"
       << "    \"distinct_pairs\": " << stats.distinct_pairs << ",\n"
       << "    \"per_target_seconds\": " << FormatDouble(per_target_seconds)
       << ",\n"
       << "    \"batch_seconds\": " << FormatDouble(batch_seconds) << ",\n"
       << "    \"per_target_targets_per_sec\": "
       << FormatDouble(targets / per_target_seconds) << ",\n"
       << "    \"batch_targets_per_sec\": "
       << FormatDouble(targets / batch_seconds) << ",\n"
       << "    \"speedup\": "
       << FormatDouble(per_target_seconds / batch_seconds) << ",\n"
       << "    \"per_target_pair_draws\": " << per_target_draws << ",\n"
       << "    \"batch_pair_draws\": " << stats.pair_draws << ",\n"
       << "    \"pair_draw_ratio\": "
       << FormatDouble(static_cast<double>(per_target_draws) /
                       static_cast<double>(stats.pair_draws))
       << "\n"
       << "  }";
  SKYPREF_CHECK(stats.pair_draws < per_target_draws);
  return json.str();
}

/// Section 7's batch row: all-objects estimation on the same instance,
/// kBlock batch (one world at a time, scalar ternary draws) vs the
/// bit-sliced batch (512-world superchunks, NextTernaryWords8) at equal
/// worlds on a 1-worker pool. The bit-sliced batch is then re-run on
/// 2- and 4-worker pools and asserted bit-identical; the two engines'
/// estimates must agree within their summed Hoeffding bars.
std::string BenchBitsliceBatch(const Dataset& data,
                               const PreferenceModel& model) {
  SolverOptions block;
  block.monte_carlo.samples = FullScale() ? 262144 : 65536;
  block.monte_carlo.seed = 7;
  SolverOptions sliced = block;
  sliced.monte_carlo.engine = MonteCarloOptions::Engine::kBitSliced;
  const double worlds = static_cast<double>(block.monte_carlo.samples);

  ThreadPool single(1);
  BatchSamStats block_stats;
  std::vector<double> block_estimates;
  const double block_seconds = TimeBest(2, [&] {
    block_estimates = BatchMonteCarloSkylineProbabilities(
                          data, model, single, block, &block_stats)
                          .value();
  });

  std::ostringstream threads_json;
  std::vector<double> reference;
  BatchSamStats sliced_stats;
  double sliced_seconds = 0.0;
  bool bit_identical = true;
  const std::vector<std::size_t> thread_counts = {1, 2, 4};
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    ThreadPool pool(thread_counts[t]);
    std::vector<double> estimates;
    const double seconds = TimeBest(2, [&] {
      estimates = BitSlicedBatchMonteCarloSkylineProbabilities(
                      data, model, pool, sliced, &sliced_stats)
                      .value();
    });
    if (t == 0) {
      reference = estimates;
      sliced_seconds = seconds;
    } else if (estimates != reference) {
      bit_identical = false;
    }
    threads_json << "        {\"threads\": " << thread_counts[t]
                 << ", \"seconds\": " << FormatDouble(seconds)
                 << ", \"speedup_vs_1\": "
                 << FormatDouble(sliced_seconds / seconds) << "}"
                 << (t + 1 < thread_counts.size() ? "," : "") << "\n";
  }
  SKYPREF_CHECK(bit_identical);

  // Different streams, same probabilities: per target, both estimates
  // sit within HoeffdingEpsilon(worlds, 1e-6) of the truth.
  double max_abs_diff = 0.0;
  for (ObjectId t = 0; t < data.size(); ++t) {
    max_abs_diff = std::max(max_abs_diff,
                            std::abs(block_estimates[t] - reference[t]));
  }
  const double bar = 2.0 * HoeffdingEpsilon(block.monte_carlo.samples, 1e-6);
  SKYPREF_CHECK(max_abs_diff < bar);

  std::ostringstream json;
  json << "    \"batch\": {\n"
       << "      \"targets\": " << data.size() << ",\n"
       << "      \"samples\": " << block.monte_carlo.samples << ",\n"
       << "      \"block_batch_1thread_seconds\": "
       << FormatDouble(block_seconds) << ",\n"
       << "      \"bitslice_batch_1thread_seconds\": "
       << FormatDouble(sliced_seconds) << ",\n"
       << "      \"bitslice_batch_1thread_worlds_per_sec\": "
       << FormatDouble(worlds / sliced_seconds) << ",\n"
       << "      \"speedup_vs_block_batch\": "
       << FormatDouble(block_seconds / sliced_seconds) << ",\n"
       << "      \"block_batch_pair_draws\": " << block_stats.pair_draws
       << ",\n"
       << "      \"bitslice_batch_pair_draws\": " << sliced_stats.pair_draws
       << ",\n"
       << "      \"max_abs_estimate_diff\": " << FormatDouble(max_abs_diff)
       << ",\n"
       << "      \"threads\": [\n"
       << threads_json.str() << "      ],\n"
       << "      \"bit_identical_across_threads\": "
       << (bit_identical ? "true" : "false") << "\n"
       << "    }";
  return json.str();
}

/// Section 7: the bit-slicing tentpole. Same hard target and workload
/// family as BenchSamScaling (block-Zipf, correlated blocks, big
/// groups) at the n = 150 scale the tentpole is pinned against. The
/// headline number is single-thread worlds/sec, scalar block engine vs
/// bit-sliced engine on the same sample budget; the thread curve then
/// shows the two parallel axes compose (64 lanes per word x blocks per
/// pool).
std::string BenchBitslice() {
  BlockZipfOptions gen;
  gen.objects = FullScale() ? 600 : 150;
  gen.dimensions = 3;
  gen.block_size = 12;
  gen.values_per_block = 6;
  gen.theta = 1.0;
  gen.seed = 7;
  Dataset data = GenerateBlockZipf(gen).value();
  HashedPreferenceModel base(2013,
                             HashedPreferenceModel::Style::kTotalUniform);
  BlockLocalPreferenceModel model(base, gen.values_per_block);

  MonteCarloOptions options;
  options.samples = FullScale() ? 2000000 : 400000;
  options.seed = 7;
  double worlds = static_cast<double>(options.samples);

  ThreadPool single(1);
  MonteCarloResult scalar_result;
  double scalar_seconds = TimeBest(2, [&] {
    scalar_result =
        BlockMonteCarloSkylineProbability(data, 0, model, single, options)
            .value();
  });
  MonteCarloResult sliced_result;
  double sliced_seconds = TimeBest(2, [&] {
    sliced_result =
        BitSlicedMonteCarloSkylineProbability(data, 0, model, single, options)
            .value();
  });
  // Different streams, same probability: divergence past 0.02 at these
  // sample counts means a broken sampler, not noise.
  SKYPREF_CHECK(std::abs(scalar_result.estimate - sliced_result.estimate) <
                0.02);

  std::ostringstream json;
  json << "  \"bitslice\": {\n"
       << "    \"objects\": " << data.size() << ",\n"
       << "    \"samples\": " << options.samples << ",\n"
       << "    \"block_1thread_seconds\": " << FormatDouble(scalar_seconds)
       << ",\n"
       << "    \"block_1thread_worlds_per_sec\": "
       << FormatDouble(worlds / scalar_seconds) << ",\n"
       << "    \"bitslice_1thread_seconds\": " << FormatDouble(sliced_seconds)
       << ",\n"
       << "    \"bitslice_1thread_worlds_per_sec\": "
       << FormatDouble(worlds / sliced_seconds) << ",\n"
       << "    \"speedup_vs_block\": "
       << FormatDouble(scalar_seconds / sliced_seconds) << ",\n"
       << "    \"block_pair_draws\": " << scalar_result.pair_draws << ",\n"
       << "    \"bitslice_pair_draws\": " << sliced_result.pair_draws << ",\n"
       << "    \"block_estimate\": " << FormatDouble(scalar_result.estimate)
       << ",\n"
       << "    \"bitslice_estimate\": "
       << FormatDouble(sliced_result.estimate) << ",\n";

  double base_seconds = 0.0;
  std::uint64_t reference_worlds = 0;
  bool bit_identical = true;
  json << "    \"threads\": [\n";
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    ThreadPool pool(thread_counts[t]);
    MonteCarloResult result;
    double seconds = TimeBest(2, [&] {
      result =
          BitSlicedMonteCarloSkylineProbability(data, 0, model, pool, options)
              .value();
    });
    if (t == 0) {
      reference_worlds = result.skyline_worlds;
      base_seconds = seconds;
    } else if (result.skyline_worlds != reference_worlds) {
      bit_identical = false;
    }
    json << "      {\"threads\": " << thread_counts[t]
         << ", \"seconds\": " << FormatDouble(seconds)
         << ", \"worlds_per_sec\": " << FormatDouble(worlds / seconds)
         << ", \"speedup_vs_1\": " << FormatDouble(base_seconds / seconds)
         << "}" << (t + 1 < thread_counts.size() ? "," : "") << "\n";
  }
  json << "    ],\n"
       << "    \"bit_identical_across_threads\": "
       << (bit_identical ? "true" : "false") << ",\n"
       << BenchBitsliceBatch(data, model) << "\n"
       << "  }";
  SKYPREF_CHECK(bit_identical);
  return json.str();
}

int Main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_exact.json";
  const std::string sam_path = argc > 2 ? argv[2] : "BENCH_sam.json";
  const std::string bitslice_path =
      argc > 3 ? argv[3] : "BENCH_sam_bitslice.json";
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"bench_hotpath\",\n"
       << "  \"scale\": \"" << (FullScale() ? "full" : "quick") << "\",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n";
  std::fprintf(stderr, "bench_hotpath: flatten...\n");
  json << BenchFlatten() << ",\n";
  std::fprintf(stderr, "bench_hotpath: batch all-objects...\n");
  json << BenchBatch() << ",\n";
  std::fprintf(stderr, "bench_hotpath: resilience overhead...\n");
  json << BenchResilience() << ",\n";
  std::fprintf(stderr, "bench_hotpath: chaos armed-but-quiet overhead...\n");
  json << BenchChaosQuiet() << ",\n";
  std::fprintf(stderr, "bench_hotpath: per-target plan...\n");
  json << BenchPlan() << "\n}\n";

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_hotpath: cannot open %s\n", path.c_str());
    return 1;
  }
  out << json.str();
  out.close();
  std::fprintf(stderr, "bench_hotpath: wrote %s\n", path.c_str());

  std::ostringstream sam_json;
  sam_json << "{\n"
           << "  \"bench\": \"bench_hotpath\",\n"
           << "  \"scale\": \"" << (FullScale() ? "full" : "quick")
           << "\",\n"
           << "  \"hardware_threads\": "
           << std::thread::hardware_concurrency() << ",\n";
  std::fprintf(stderr, "bench_hotpath: sam thread scaling...\n");
  sam_json << BenchSamScaling() << ",\n";
  std::fprintf(stderr, "bench_hotpath: batch sam world sharing...\n");
  sam_json << BenchBatchSam() << "\n}\n";

  std::ofstream sam_out(sam_path);
  if (!sam_out) {
    std::fprintf(stderr, "bench_hotpath: cannot open %s\n", sam_path.c_str());
    return 1;
  }
  sam_out << sam_json.str();
  sam_out.close();
  std::fprintf(stderr, "bench_hotpath: wrote %s\n", sam_path.c_str());

  std::ostringstream bitslice_json;
  bitslice_json << "{\n"
                << "  \"bench\": \"bench_hotpath\",\n"
                << "  \"scale\": \"" << (FullScale() ? "full" : "quick")
                << "\",\n"
                << "  \"hardware_threads\": "
                << std::thread::hardware_concurrency() << ",\n";
  std::fprintf(stderr, "bench_hotpath: bit-sliced engine...\n");
  bitslice_json << BenchBitslice() << "\n}\n";

  std::ofstream bitslice_out(bitslice_path);
  if (!bitslice_out) {
    std::fprintf(stderr, "bench_hotpath: cannot open %s\n",
                 bitslice_path.c_str());
    return 1;
  }
  bitslice_out << bitslice_json.str();
  bitslice_out.close();
  std::fprintf(stderr, "bench_hotpath: wrote %s\n", bitslice_path.c_str());
  return 0;
}

}  // namespace
}  // namespace skypref::bench

int main(int argc, char** argv) { return skypref::bench::Main(argc, argv); }
