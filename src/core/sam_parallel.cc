#include "src/core/sam_parallel.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/core/dominance.h"
#include "src/core/sam_bitslice.h"
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

// -------------------------------------------------------------------------
// Layer 1: the flat sampler (instance built by sam_internal.cc)
// -------------------------------------------------------------------------

/// Per-block mutable sampling state: pair outcomes memoized per world
/// with epoch stamps (no per-world clearing). Each block owns its state —
/// worlds never share outcomes across blocks.
struct SamWorldState {
  explicit SamWorldState(std::size_t pairs)
      : epoch_mark(pairs, 0), outcome(pairs, 0) {}

  std::vector<std::uint64_t> epoch_mark;
  std::vector<std::uint8_t> outcome;
  std::uint64_t epoch = 0;
};

/// Samples one world; returns true iff the target survives. Lazy mode
/// draws pair outcomes on demand and abandons the world at the first
/// dominator, exactly like the serial WorldSampler.
bool SampleFlatWorld(const FlatSamInstance& inst, SamWorldState& state,
                     Rng& rng, bool lazy, std::uint64_t* pair_draws) {
  ++state.epoch;
  if (!lazy) {
    for (std::uint32_t p = 0; p < inst.thresholds.size(); ++p) {
      state.outcome[p] =
          internal::ThresholdHit(rng.NextUint64(), inst.thresholds[p]) ? 1 : 0;
      state.epoch_mark[p] = state.epoch;
      ++*pair_draws;
    }
  }
  const std::size_t count = inst.candidate_count();
  for (std::size_t c = 0; c < count; ++c) {
    const std::uint32_t begin = inst.offsets[c];
    const std::uint32_t end = inst.offsets[c + 1];
    bool dominates = true;
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t p = inst.pair_ids[i];
      if (state.epoch_mark[p] != state.epoch) {
        state.epoch_mark[p] = state.epoch;
        state.outcome[p] =
            internal::ThresholdHit(rng.NextUint64(), inst.thresholds[p]) ? 1
                                                                         : 0;
        ++*pair_draws;
      }
      if (state.outcome[p] == 0) {
        dominates = false;
        break;
      }
    }
    // A candidate with no differing dimension would be a duplicate of the
    // target; Dataset::Validate rejects those, but be conservative.
    if (dominates && end > begin) return false;
  }
  return true;
}

}  // namespace

// -------------------------------------------------------------------------
// Single-target block engine
// -------------------------------------------------------------------------

Result<MonteCarloResult> BlockMonteCarloSkylineProbability(
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
  if (options.block_size == 0) {
    return Status::InvalidArgument("block engine needs block_size >= 1");
  }

  // Algorithm 2 line 1, shared by every block's worlds.
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
                             return internal::BuildFlatSamInstance(
                                 data, target, ordered, model);
                           }));
  const std::uint64_t num_blocks =
      (samples + options.block_size - 1) / options.block_size;
  std::vector<std::uint64_t> survived(num_blocks, 0);
  std::vector<BlockOutcome> outcomes;
  const bool lazy = options.lazy;
  SKYPREF_RETURN_IF_ERROR(RunDeterministicBlocks(
      pool, samples, options.block_size, /*chunk=*/1, options.seed, deadline,
      options.cancel, outcomes, [&](std::uint64_t b) {
        return [&inst, &survived, b, lazy,
                state = SamWorldState(inst.pair_count())](
                   Rng& rng, std::uint64_t step, std::uint64_t* draws) mutable {
          (void)step;  // chunk = 1: exactly one world per call
          if (SampleFlatWorld(inst, state, rng, lazy, draws)) ++survived[b];
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

Result<MonteCarloResult> BlockMonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const MonteCarloOptions& options) {
  std::vector<ObjectId> candidates;
  candidates.reserve(data.size() > 0 ? data.size() - 1 : 0);
  for (ObjectId id = 0; id < data.size(); ++id) {
    if (id != target) candidates.push_back(id);
  }
  return BlockMonteCarloSkylineProbability(data, target, candidates, model,
                                           pool, options);
}

// -------------------------------------------------------------------------
// Layer 3: batch Sam (plan built by sam_internal.cc)
// -------------------------------------------------------------------------

namespace {

/// Per-block mutable state of the scalar batch sampler.
struct BatchWorldState {
  explicit BatchWorldState(std::size_t pairs)
      : epoch_mark(pairs, 0), outcome(pairs, internal::kIncomparable) {}

  std::vector<std::uint64_t> epoch_mark;
  std::vector<std::uint8_t> outcome;
  std::uint64_t epoch = 0;
};

/// True iff \p target survives the current world. Orientations are drawn
/// lazily and memoized per world, so every target of the world sees the
/// same sampled preference — the consistency that makes shared worlds
/// valid.
bool BatchSurvives(const BatchPlan& plan, BatchWorldState& state,
                   ObjectId target, Rng& rng, std::uint64_t* pair_draws) {
  const std::uint32_t begin = plan.target_begin[target];
  const std::uint32_t end = plan.target_begin[target + 1];
  for (std::uint32_t slot = begin; slot < end; ++slot) {
    bool dominates = true;
    const std::uint32_t rb = plan.req_offsets[slot];
    const std::uint32_t re = plan.req_offsets[slot + 1];
    for (std::uint32_t r = rb; r < re; ++r) {
      const std::uint32_t packed = plan.reqs[r];
      const std::uint32_t p = packed >> 1;
      const std::uint8_t want = static_cast<std::uint8_t>(packed & 1);
      if (state.epoch_mark[p] != state.epoch) {
        state.epoch_mark[p] = state.epoch;
        const std::uint64_t u = rng.NextUint64();
        state.outcome[p] = internal::ThresholdHit(u, plan.cut_lo[p])
                               ? internal::kLoPreferred
                               : (internal::ThresholdHit(u, plan.cut_hi[p])
                                      ? internal::kHiPreferred
                                      : internal::kIncomparable);
        ++*pair_draws;
      }
      if (state.outcome[p] != want) {
        dominates = false;
        break;
      }
    }
    if (dominates) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<double>> BatchMonteCarloSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const SolverOptions& options, BatchSamStats* stats) {
  // The bit-sliced engine shares this plan-building front end but swaps
  // the world loop for mask words; dispatch before any work happens.
  if (options.monte_carlo.engine == MonteCarloOptions::Engine::kBitSliced) {
    return BitSlicedBatchMonteCarloSkylineProbabilities(data, model, pool,
                                                        options, stats);
  }
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
  if (mc.block_size == 0) {
    return Status::InvalidArgument("block engine needs block_size >= 1");
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

  // Phase C: the shared world stream, fanned out in deterministic blocks
  // (same runner, same "sampler.block" failpoint, same truncation
  // contract as the single-target engine). Each block owns its memo
  // state and its per-target counters; the reduce sums the counted block
  // prefix in index order.
  const std::uint64_t num_blocks =
      (samples + mc.block_size - 1) / mc.block_size;
  std::vector<std::vector<std::uint64_t>> survived(
      num_blocks, std::vector<std::uint64_t>(n, 0));
  std::vector<BlockOutcome> outcomes;
  SKYPREF_RETURN_IF_ERROR(RunDeterministicBlocks(
      pool, samples, mc.block_size, /*chunk=*/1, mc.seed, deadline, mc.cancel,
      outcomes, [&](std::uint64_t b) {
        return [&plan, counts = survived[b].data(), n,
                state = BatchWorldState(plan.pair_count())](
                   Rng& rng, std::uint64_t step, std::uint64_t* draws) mutable {
          (void)step;  // chunk = 1: exactly one world per call
          ++state.epoch;
          for (ObjectId t = 0; t < n; ++t) {
            if (BatchSurvives(plan, state, t, rng, draws)) ++counts[t];
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
