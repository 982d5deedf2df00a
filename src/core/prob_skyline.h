#ifndef SKYPREF_CORE_PROB_SKYLINE_H_
#define SKYPREF_CORE_PROB_SKYLINE_H_

/// \file
/// The probabilistic skyline and top-k queries over all objects.
///
/// "Probabilistic skyline" (Pei et al., adapted by the paper to
/// uncertain preferences) asks for all objects whose skyline probability
/// is at least tau; the paper's conclusion leaves it, with the top-k
/// variant, as future work beyond running Algorithm 2 once per object.
///
///  * ExactProbabilisticSkyline answers the threshold query EXACTLY, yet
///    usually much cheaper than n exact solves: each object is first
///    screened with certified Bonferroni bounds (src/core/bounds.h)
///    after absorption + partition, and only objects whose interval
///    straddles tau pay for a full exact computation.
///  * ProbabilisticSkyline and TopKSkyline are thin queries over ONE
///    shared-world batch estimate (BatchMonteCarloSkylineProbabilities,
///    src/core/sam_parallel.h): every sampled world scores every object.
///    With options.monte_carlo.samples == 0 the world count is
///    AllWorldsSampleSize(epsilon, delta, n), so all n estimates are
///    within epsilon SIMULTANEOUSLY with confidence 1 - delta. The
///    engine is options.monte_carlo.engine (kBitSliced is the fastest);
///    results are deterministic per (seed, block_size) and bit-identical
///    for every thread count of the pool. Stop contract: a cancelled
///    token returns Status::Cancelled, and a deadline (or failpoint)
///    that truncates the batch returns ResourceExhausted — a threshold
///    or ranking over fewer worlds would not carry the guarantee.

#include <cstddef>
#include <utility>
#include <vector>

#include "src/core/bounds.h"
#include "src/core/solver.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {

struct ProbSkylineStats {
  /// Objects decided by bounds alone (no exact solve needed).
  std::size_t decided_by_bounds = 0;
  /// Objects that required the exact fallback.
  std::size_t exact_fallbacks = 0;
};

/// All objects with sky(object) >= tau, in increasing id order. Exact.
/// Requires tau in (0, 1].
Result<std::vector<ObjectId>> ExactProbabilisticSkyline(
    const Dataset& data, const PreferenceModel& model, double tau,
    const BoundsOptions& options = {}, ProbSkylineStats* stats = nullptr);

/// Objects whose estimated skyline probability is at least \p tau, in
/// increasing id order. Requires tau in (0, 1).
Result<std::vector<ObjectId>> ProbabilisticSkyline(
    const Dataset& data, const PreferenceModel& model, double tau,
    ThreadPool& pool, const SolverOptions& options = {});

/// The min(k, n) objects with the highest estimated skyline probability,
/// highest first (ties broken by object id). Requires k >= 1.
Result<std::vector<std::pair<ObjectId, double>>> TopKSkyline(
    const Dataset& data, const PreferenceModel& model, std::size_t k,
    ThreadPool& pool, const SolverOptions& options = {});

}  // namespace skypref

#endif  // SKYPREF_CORE_PROB_SKYLINE_H_
