#ifndef SKYPREF_CORE_SAM_INTERNAL_H_
#define SKYPREF_CORE_SAM_INTERNAL_H_

/// \file
/// Shared plumbing of the Monte-Carlo engines (kBlock in sam_parallel.cc,
/// kBitSliced in sam_bitslice.cc): the flattened single-target instance,
/// the interned ternary batch plan, and the block-deterministic runner
/// that gives every engine the same seeding/truncation contract.
///
/// Everything here is an implementation detail exposed only so the two
/// engine translation units (and their tests) can share one copy of the
/// numeric contract instead of drifting apart. The determinism rules are
/// documented on the public headers (sam_parallel.h, sam_bitslice.h).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/monte_carlo.h"
#include "src/core/solver.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/cancel.h"
#include "src/util/failpoint.h"
#include "src/util/random.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {

struct BatchSamStats;  // sam_parallel.h

namespace internal {

/// Same poll cadence as the serial engine (monte_carlo.cc): every 64
/// worlds or every this many pair draws, whichever comes first.
inline constexpr std::uint64_t kPairDrawPollStride = 8192;

// -------------------------------------------------------------------------
// The flattened single-target instance
// -------------------------------------------------------------------------

/// The single-target instance flattened for the world loop, mirroring the
/// exact engine's FlatInstance: distinct (dim, value) preference pairs
/// become integer Bernoulli thresholds and each candidate owns a CSR
/// slice of pair ids, in checking-sequence order.
struct FlatSamInstance {
  std::vector<std::uint64_t> thresholds;  // per distinct pair
  std::vector<std::uint32_t> pair_ids;    // CSR payload
  std::vector<std::uint32_t> offsets;     // per candidate, size count+1

  std::size_t candidate_count() const { return offsets.size() - 1; }
  std::size_t pair_count() const { return thresholds.size(); }
};

FlatSamInstance BuildFlatSamInstance(const Dataset& data, ObjectId target,
                                     std::span<const ObjectId> candidates,
                                     const PreferenceModel& model);

// -------------------------------------------------------------------------
// The interned ternary batch plan
// -------------------------------------------------------------------------

/// Ternary orientation outcomes, stored per pair per world by the scalar
/// batch sampler (the bit-sliced one stores a mask pair instead).
inline constexpr std::uint8_t kLoPreferred = 0;
inline constexpr std::uint8_t kHiPreferred = 1;
inline constexpr std::uint8_t kIncomparable = 2;

/// The whole batch flattened: a global table of ternary orientation
/// variables (two integer cuts each: draw below cut_lo means lo
/// preferred, else below cut_hi means hi preferred, else incomparable)
/// plus a two-level CSR — per target a slice of candidate slots, per
/// slot a slice of packed requirements (pair_index << 1 | want_hi).
/// Candidates are in descending dominance-probability order per target.
struct BatchPlan {
  std::vector<std::uint64_t> cut_lo;
  std::vector<std::uint64_t> cut_hi;
  std::vector<std::uint32_t> reqs;
  std::vector<std::uint32_t> req_offsets;   // per candidate slot, slots+1
  std::vector<std::uint32_t> target_begin;  // per target, n+1, slot indices

  std::size_t pair_count() const { return cut_lo.size(); }
};

/// Phases A+B of both batch samplers: the batch preprocessing shared with
/// the exact batch (PlanBatchTargets over \p pool, honoring
/// options.preprocess) and the serial interning pass that builds the
/// shared ternary pair table ("alloc.sam.batch_plan"). Fills the
/// preprocessing fields of \p stats (targets, absorbed, groups,
/// largest_group, distinct_pairs, pruned_candidates); the world-loop
/// fields (samples, pair_draws, truncated, requested_samples) stay
/// untouched for the caller's phase C. Fails with ResourceExhausted when
/// either phase cannot allocate.
Result<BatchPlan> BuildBatchPlan(const Dataset& data,
                                 const PreferenceModel& model,
                                 ThreadPool& pool, const SolverOptions& options,
                                 BatchSamStats& stats);

// -------------------------------------------------------------------------
// The block-deterministic runner
// -------------------------------------------------------------------------

/// What one block reported. `achieved`/`draws` of an incomplete block
/// are nonzero only for block 0 (which keeps its partial prefix); every
/// other stopped block discards its partial work so that the reduced
/// estimate is a pure function of the counted block prefix.
struct BlockOutcome {
  std::uint64_t achieved = 0;
  std::uint64_t draws = 0;
  bool complete = false;
};

/// The counted block prefix [0, end) and whether truncation happened.
struct BlockPrefix {
  std::uint64_t end = 0;
  bool truncated = false;
};

/// Applies the truncation contract: T = first incomplete block; blocks
/// past T never count, even when they finished. T == 0 still counts
/// block 0's kept partial prefix (a truncated run always carries at
/// least one world).
inline BlockPrefix CountedPrefix(const std::vector<BlockOutcome>& outcomes) {
  std::uint64_t t = outcomes.size();
  for (std::uint64_t b = 0; b < outcomes.size(); ++b) {
    if (!outcomes[b].complete) {
      t = b;
      break;
    }
  }
  if (t == outcomes.size()) return {t, false};
  return {std::max<std::uint64_t>(t, 1), true};
}

/// Fans `samples` worlds out over `pool` in fixed blocks of `block_size`.
/// `make_block(b)` builds block b's world closure (owning any per-block
/// state); the closure is then called with (rng, step, &draws) — asked
/// for `step` consecutive worlds at a time, at most `chunk` per call —
/// against block b's private SplitSeed(seed, b) Rng. The scalar engines
/// pass chunk = 1 (one world per call, polls at the serial cadence after
/// every world); the bit-sliced engines pass chunk = 64 (single target:
/// one mask word per call, polls after every word) or chunk = 512
/// (batch: one superchunk per call, polls after every superchunk). Deterministic per (seed,
/// block_size, chunk) at every thread count; see sam_parallel.h for the
/// truncation contract. Returns Cancelled when any block observes a
/// tripped token.
template <typename MakeBlockFn>
Status RunDeterministicBlocks(ThreadPool& pool, std::uint64_t samples,
                              std::uint64_t block_size, std::uint64_t chunk,
                              std::uint64_t seed, const Deadline& deadline,
                              const CancelToken* cancel,
                              std::vector<BlockOutcome>& outcomes,
                              MakeBlockFn&& make_block) {
  const std::uint64_t num_blocks = (samples + block_size - 1) / block_size;
  outcomes.assign(num_blocks, BlockOutcome{});

  // The "sampler.block" failpoint is consumed SERIALLY over the block
  // indices before dispatch, so "fires on hit k" poisons block k at every
  // thread count (the deterministic-checkpoint placement rule of
  // failpoint.h). Block 0 is exempt: the reduced estimate always keeps at
  // least block 0's prefix.
  std::uint64_t poisoned = num_blocks;
  for (std::uint64_t b = 1; b < num_blocks; ++b) {
    if (SKYPREF_FAILPOINT("sampler.block")) {
      poisoned = b;
      break;
    }
  }

  // First block known to be stopped or poisoned. Later blocks use it to
  // skip work the prefix rule would discard anyway; skipping never
  // changes the counted prefix, because a skipped block is strictly
  // after the first stopped one.
  std::atomic<std::uint64_t> first_stop(poisoned);
  std::atomic<bool> cancelled(false);

  pool.ParallelFor(static_cast<std::size_t>(num_blocks), [&](std::size_t bi) {
    const std::uint64_t b = static_cast<std::uint64_t>(bi);
    if (b > 0 && b >= first_stop.load(std::memory_order_relaxed)) return;
    const std::uint64_t begin = b * block_size;
    const std::uint64_t want = std::min(block_size, samples - begin);
    Rng rng(SplitSeed(seed, b));
    auto world = make_block(b);
    BlockOutcome& out = outcomes[b];
    std::uint64_t draws_at_last_poll = 0;
    while (out.achieved < want) {
      const std::uint64_t step = std::min(chunk, want - out.achieved);
      world(rng, step, &out.draws);
      out.achieved += step;
      // Poll after sampling (serial cadence), so block 0's kept prefix is
      // never empty and a cheap block never pays a clock read per world.
      if (((out.achieved & 63) == 0 ||
           out.draws - draws_at_last_poll >= kPairDrawPollStride) &&
          out.achieved < want) {
        draws_at_last_poll = out.draws;
        if (cancel != nullptr && cancel->cancelled()) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        if (deadline.Expired()) {
          std::uint64_t cur = first_stop.load(std::memory_order_relaxed);
          while (b < cur && !first_stop.compare_exchange_weak(
                                cur, b, std::memory_order_relaxed)) {
          }
          if (b > 0) {
            // A mid-block partial of a later block is timing-dependent;
            // discard it entirely — the prefix rule drops block b anyway.
            out.achieved = 0;
            out.draws = 0;
          }
          return;
        }
      }
    }
    out.complete = true;
  });

  if (cancelled.load(std::memory_order_relaxed)) return CancelledStatus();
  return Status::OK();
}

}  // namespace internal
}  // namespace skypref

#endif  // SKYPREF_CORE_SAM_INTERNAL_H_
