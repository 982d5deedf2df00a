#include "src/core/sam_bitslice.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/core/dominance.h"
#include "src/core/sam_internal.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/try_alloc.h"

namespace skypref {

namespace {

using internal::BatchPlan;
using internal::BlockOutcome;
using internal::BlockPrefix;
using internal::CountedPrefix;
using internal::FlatSamInstance;
using internal::RunDeterministicBlocks;

/// Lanes [0, step) of a possibly-partial trailing chunk.
inline std::uint64_t ValidLanes(std::uint64_t step) {
  return step >= 64 ? ~0ULL : ((1ULL << step) - 1);
}

/// Drops candidates that can dominate in NO world — some required pair
/// has probability exactly zero — and compacts the pair table to the
/// survivors. The scalar engines skip this (their lazy first-draw
/// abandon makes impossible candidates nearly free, and their streams
/// are pinned); here every candidate alive in the chunk loop costs mask
/// words until all 64 lanes are covered, so impossible ones would
/// dominate the per-chunk cost on workloads with many incomparable
/// pairs (e.g. block-local models). Removing them changes no world's
/// verdict, only the stream — which this engine owns.
FlatSamInstance PruneImpossible(const FlatSamInstance& inst) {
  constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};
  FlatSamInstance out;
  std::vector<std::uint32_t> remap(inst.thresholds.size(), kUnmapped);
  out.offsets.push_back(0);
  const std::size_t count = inst.candidate_count();
  for (std::size_t c = 0; c < count; ++c) {
    const std::uint32_t begin = inst.offsets[c];
    const std::uint32_t end = inst.offsets[c + 1];
    bool possible = true;
    for (std::uint32_t i = begin; i < end; ++i) {
      if (inst.thresholds[inst.pair_ids[i]] == 0) {
        possible = false;
        break;
      }
    }
    if (!possible) continue;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t p = inst.pair_ids[i];
      if (remap[p] == kUnmapped) {
        remap[p] = static_cast<std::uint32_t>(out.thresholds.size());
        out.thresholds.push_back(inst.thresholds[p]);
      }
      out.pair_ids.push_back(remap[p]);
    }
    out.offsets.push_back(static_cast<std::uint32_t>(out.pair_ids.size()));
  }
  return out;
}

// -------------------------------------------------------------------------
// Single-target chunk state
// -------------------------------------------------------------------------

/// Chunks whose pair masks are drawn together: NextBernoulliWords8 and
/// NextTernaryWords8 produce one pair's masks for eight consecutive
/// chunks per call, so the memo granularity of both engines is the
/// 512-world SUPERCHUNK, not the chunk.
constexpr std::uint64_t kChunksPerGroup = 8;

/// Per-block mask memo of the single-target engine: per distinct pair,
/// eight Bernoulli mask words (one per chunk of the current superchunk)
/// drawn in a single wide call, epoch-stamped so a new superchunk
/// invalidates every pair without clearing. The eight-lane generator is
/// seeded from the block's own Rng on first use, preserving the
/// block-seeding contract (the stream is a function of the block index
/// alone).
struct SliceState {
  explicit SliceState(std::size_t pairs)
      : epoch_mark(pairs, 0), mask(pairs * kChunksPerGroup) {}

  std::vector<std::uint64_t> epoch_mark;
  std::vector<std::uint64_t> mask;  // mask[p * kChunksPerGroup + lane]
  std::uint64_t epoch = 0;  // superchunk epoch
  std::uint64_t chunk = 0;  // chunk index within the block
  std::optional<OctoRng> oct;
};

/// Evaluates one 64-world chunk; returns the word of surviving lanes
/// (restricted to \p valid). Lazy mode generates a pair's masks only
/// when some candidate still dominating somewhere first touches the
/// pair during the superchunk, and abandons a candidate as soon as its
/// accumulated AND dies — the word-level analog of the scalar engine's
/// first-dominator abandon. A trailing superchunk shorter than eight
/// chunks simply leaves its unused lanes undrained (pair_draws counts
/// GENERATED lane draws, 512 per wide call).
std::uint64_t SampleChunk(const FlatSamInstance& inst, SliceState& state,
                          Rng& rng, bool lazy, std::uint64_t valid,
                          std::uint64_t* pair_draws) {
  const std::uint64_t lane = state.chunk % kChunksPerGroup;
  ++state.chunk;
  if (lane == 0) {
    ++state.epoch;  // new superchunk: every pair's masks are stale
    if (!state.oct.has_value()) state.oct.emplace(rng);
  }
  OctoRng& oct = *state.oct;
  if (!lazy && lane == 0) {
    for (std::size_t p = 0; p < inst.thresholds.size(); ++p) {
      NextBernoulliWords8(oct, inst.thresholds[p],
                          &state.mask[p * kChunksPerGroup]);
      state.epoch_mark[p] = state.epoch;
      *pair_draws += 64 * kChunksPerGroup;
    }
  }
  std::uint64_t dominated = 0;
  const std::size_t count = inst.candidate_count();
  for (std::size_t c = 0; c < count; ++c) {
    const std::uint32_t begin = inst.offsets[c];
    const std::uint32_t end = inst.offsets[c + 1];
    if (begin == end) continue;  // would duplicate the target; be safe
    std::uint64_t acc = ~0ULL;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t p = inst.pair_ids[i];
      if (state.epoch_mark[p] != state.epoch) {
        state.epoch_mark[p] = state.epoch;
        NextBernoulliWords8(oct, inst.thresholds[p],
                            &state.mask[p * kChunksPerGroup]);
        *pair_draws += 64 * kChunksPerGroup;
      }
      acc &= state.mask[p * kChunksPerGroup + lane];
      if (acc == 0) break;  // candidate dominates in no world of the chunk
    }
    dominated |= acc;
    if ((dominated & valid) == valid) break;  // every lane already dominated
  }
  return ~dominated & valid;
}

// -------------------------------------------------------------------------
// Batch superchunk state
// -------------------------------------------------------------------------

/// One superchunk's worth of mask words: word j covers chunk j's worlds.
using SuperWord = std::array<std::uint64_t, kChunksPerGroup>;

/// Per-block mask memo of the batch engine: per distinct ternary pair,
/// the lo-beats-hi and hi-beats-lo masks of all eight chunks of the
/// current superchunk, drawn together by one NextTernaryWords8 call and
/// shared by every target. Pair p's sixteen words sit side by side (lo
/// words at mask[2p * 8], hi words at mask[(2p + 1) * 8]), so a packed
/// requirement (p << 1 | want_hi) indexes its eight words directly.
/// Epoch stamps invalidate every pair per superchunk without clearing;
/// the eight-lane generator is forked from the block's Rng on first use.
struct BatchSliceState {
  explicit BatchSliceState(std::size_t pairs)
      : epoch_mark(pairs, 0), mask(pairs * 2 * kChunksPerGroup) {}

  std::vector<std::uint64_t> epoch_mark;
  std::vector<std::uint64_t> mask;
  std::uint64_t epoch = 0;  // superchunk epoch
  std::optional<OctoRng> oct;
};

/// Worlds of the current superchunk in which \p target survives, over
/// the lanes set in \p valid (a trailing partial superchunk clears the
/// rest). Orientation masks are drawn lazily on first touch and
/// memoized for the rest of the superchunk, so all targets see the same
/// sampled worlds. A candidate stops once all eight of its accumulators
/// are zero, the target once every valid lane is dominated.
std::uint64_t BatchSuperchunkSurvivors(const BatchPlan& plan,
                                       BatchSliceState& state, ObjectId target,
                                       const SuperWord& valid,
                                       std::uint64_t* pair_draws) {
  SuperWord dominated{};
  const std::uint32_t begin = plan.target_begin[target];
  const std::uint32_t end = plan.target_begin[target + 1];
  for (std::uint32_t slot = begin; slot < end; ++slot) {
    SuperWord acc = valid;
    const std::uint32_t rb = plan.req_offsets[slot];
    const std::uint32_t re = plan.req_offsets[slot + 1];
    for (std::uint32_t r = rb; r < re; ++r) {
      const std::uint32_t packed = plan.reqs[r];
      const std::uint32_t p = packed >> 1;
      if (state.epoch_mark[p] != state.epoch) {
        state.epoch_mark[p] = state.epoch;
        std::uint64_t* lo = &state.mask[std::size_t{p} * 2 * kChunksPerGroup];
        NextTernaryWords8(*state.oct, plan.cut_lo[p], plan.cut_hi[p], lo,
                          lo + kChunksPerGroup);
        *pair_draws += 64 * kChunksPerGroup;
      }
      const std::uint64_t* m =
          &state.mask[std::size_t{packed} * kChunksPerGroup];
      std::uint64_t alive = 0;
      for (std::size_t j = 0; j < kChunksPerGroup; ++j) {
        acc[j] &= m[j];
        alive |= acc[j];
      }
      if (alive == 0) break;
    }
    std::uint64_t open = 0;
    for (std::size_t j = 0; j < kChunksPerGroup; ++j) {
      dominated[j] |= acc[j];
      open |= valid[j] & ~dominated[j];
    }
    if (open == 0) break;
  }
  std::uint64_t survivors = 0;
  for (std::size_t j = 0; j < kChunksPerGroup; ++j) {
    survivors += static_cast<std::uint64_t>(
        std::popcount(valid[j] & ~dominated[j]));
  }
  return survivors;
}

}  // namespace

// -------------------------------------------------------------------------
// Single-target engine
// -------------------------------------------------------------------------

Result<MonteCarloResult> BitSlicedMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, ThreadPool& pool,
    const MonteCarloOptions& options) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  for (ObjectId id : candidates) {
    if (id >= data.size()) {
      return Status::OutOfRange("candidate object out of range");
    }
    if (id == target) {
      return Status::InvalidArgument(
          "candidate list must not contain the target object");
    }
  }
  std::uint64_t samples = options.samples != 0
                              ? options.samples
                              : HoeffdingSampleSize(options.epsilon,
                                                    options.delta);
  if (samples == 0) {
    return Status::InvalidArgument(
        "Monte Carlo needs samples > 0 (or valid epsilon/delta)");
  }
  if (options.block_size == 0 || options.block_size % 64 != 0) {
    return Status::InvalidArgument(
        "bit-sliced engine needs block_size a positive multiple of 64");
  }

  // Algorithm 2 line 1, shared by every block's chunks.
  std::vector<ObjectId> ordered(candidates.begin(), candidates.end());
  if (options.sort_by_dominance) {
    std::vector<std::pair<double, ObjectId>> keyed;
    keyed.reserve(ordered.size());
    for (ObjectId id : ordered) {
      keyed.emplace_back(DominanceProbability(data, id, target, model), id);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (std::size_t i = 0; i < keyed.size(); ++i) ordered[i] = keyed[i].second;
  }

  Deadline deadline = options.deadline.has_value()
                          ? options.deadline
                          : Deadline::After(options.time_limit_seconds);
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return CancelledStatus();
  }

  SKYPREF_ASSIGN_OR_RETURN(FlatSamInstance inst,
                           TryAlloc("alloc.sam.instance", [&] {
                             return PruneImpossible(
                                 internal::BuildFlatSamInstance(data, target,
                                                                ordered, model));
                           }));
  // The per-block mask-memo arenas are allocated inside worker dispatch,
  // where no Status can surface; probe the allocation once up front so
  // an injected (or organic) arena failure lands here deterministically.
  {
    auto probe = TryAlloc("alloc.sam.slice_arena",
                          [&] { return SliceState(inst.pair_count()); });
    SKYPREF_RETURN_IF_ERROR(probe.status());
  }
  const std::uint64_t num_blocks =
      (samples + options.block_size - 1) / options.block_size;
  std::vector<std::uint64_t> survived(num_blocks, 0);
  std::vector<BlockOutcome> outcomes;
  const bool lazy = options.lazy;
  SKYPREF_RETURN_IF_ERROR(RunDeterministicBlocks(
      pool, samples, options.block_size, /*chunk=*/64, options.seed, deadline,
      options.cancel, outcomes, [&](std::uint64_t b) {
        return [&inst, &survived, b, lazy,
                state = SliceState(inst.pair_count())](
                   Rng& rng, std::uint64_t step, std::uint64_t* draws) mutable {
          survived[b] += static_cast<std::uint64_t>(std::popcount(
              SampleChunk(inst, state, rng, lazy, ValidLanes(step), draws)));
        };
      }));

  const BlockPrefix prefix = CountedPrefix(outcomes);
  MonteCarloResult result;
  result.requested_samples = samples;
  result.truncated = prefix.truncated;
  for (std::uint64_t b = 0; b < prefix.end; ++b) {
    result.samples += outcomes[b].achieved;
    result.pair_draws += outcomes[b].draws;
    result.skyline_worlds += survived[b];
  }
  result.estimate = static_cast<double>(result.skyline_worlds) /
                    static_cast<double>(result.samples);
  SKYPREF_DCHECK(result.skyline_worlds <= result.samples);
  SKYPREF_DCHECK_PROB(result.estimate);
  return result;
}

Result<MonteCarloResult> BitSlicedMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const MonteCarloOptions& options) {
  std::vector<ObjectId> candidates;
  candidates.reserve(data.size() > 0 ? data.size() - 1 : 0);
  for (ObjectId id = 0; id < data.size(); ++id) {
    if (id != target) candidates.push_back(id);
  }
  return BitSlicedMonteCarloSkylineProbability(data, target, candidates, model,
                                               pool, options);
}

// -------------------------------------------------------------------------
// Batch engine
// -------------------------------------------------------------------------

Result<std::vector<double>> BitSlicedBatchMonteCarloSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const SolverOptions& options, BatchSamStats* stats) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  SKYPREF_RETURN_IF_ERROR(model.Validate(data));
  const std::size_t n = data.size();
  const MonteCarloOptions& mc = options.monte_carlo;
  std::uint64_t samples = mc.samples != 0
                              ? mc.samples
                              : HoeffdingSampleSize(mc.epsilon, mc.delta);
  if (samples == 0) {
    return Status::InvalidArgument(
        "Monte Carlo needs samples > 0 (or valid epsilon/delta)");
  }
  if (mc.block_size == 0 || mc.block_size % 64 != 0) {
    return Status::InvalidArgument(
        "bit-sliced engine needs block_size a positive multiple of 64");
  }
  Deadline deadline = mc.deadline.has_value()
                          ? mc.deadline
                          : Deadline::After(mc.time_limit_seconds);
  if (mc.cancel != nullptr && mc.cancel->cancelled()) {
    return CancelledStatus();
  }

  BatchSamStats local;
  local.requested_samples = samples;
  SKYPREF_ASSIGN_OR_RETURN(
      BatchPlan plan,
      internal::BuildBatchPlan(data, model, pool, options, local));
  // Same up-front probe as the single-target engine: the per-block
  // arenas themselves are built where no Status can surface.
  {
    auto probe = TryAlloc("alloc.sam.slice_arena",
                          [&] { return BatchSliceState(plan.pair_count()); });
    SKYPREF_RETURN_IF_ERROR(probe.status());
  }

  const std::uint64_t num_blocks =
      (samples + mc.block_size - 1) / mc.block_size;
  std::vector<std::vector<std::uint64_t>> survived(
      num_blocks, std::vector<std::uint64_t>(n, 0));
  std::vector<BlockOutcome> outcomes;
  SKYPREF_RETURN_IF_ERROR(RunDeterministicBlocks(
      pool, samples, mc.block_size, /*chunk=*/64 * kChunksPerGroup, mc.seed,
      deadline, mc.cancel, outcomes, [&](std::uint64_t b) {
        return [&plan, counts = survived[b].data(), n,
                state = BatchSliceState(plan.pair_count())](
                   Rng& rng, std::uint64_t step, std::uint64_t* draws) mutable {
          if (!state.oct.has_value()) state.oct.emplace(rng);
          ++state.epoch;
          SuperWord valid{};
          for (std::uint64_t j = 0; j * 64 < step; ++j) {
            valid[j] = ValidLanes(step - j * 64);
          }
          for (ObjectId t = 0; t < n; ++t) {
            counts[t] +=
                BatchSuperchunkSurvivors(plan, state, t, valid, draws);
          }
        };
      }));

  const BlockPrefix prefix = CountedPrefix(outcomes);
  local.truncated = prefix.truncated;
  for (std::uint64_t b = 0; b < prefix.end; ++b) {
    local.samples += outcomes[b].achieved;
    local.pair_draws += outcomes[b].draws;
  }
  std::vector<double> estimates(n, 0.0);
  for (ObjectId t = 0; t < n; ++t) {
    std::uint64_t hits = 0;
    for (std::uint64_t b = 0; b < prefix.end; ++b) hits += survived[b][t];
    estimates[t] =
        static_cast<double>(hits) / static_cast<double>(local.samples);
    SKYPREF_DCHECK_PROB(estimates[t]);
  }
  if (stats != nullptr) *stats = local;
  return estimates;
}

}  // namespace skypref
