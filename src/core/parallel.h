#ifndef SKYPREF_CORE_PARALLEL_H_
#define SKYPREF_CORE_PARALLEL_H_

/// \file
/// Thread-parallel exact solvers. (Sampling runs on the block-
/// deterministic engines of sam_parallel.h and sam_bitslice.h.)
///
/// Parallelism follows the algorithms' natural grain:
///
///  * Det+ — the independence groups of Theorem 4 are, by construction,
///    independent subproblems; they solve concurrently and their
///    survival factors multiply in partition order. Groups are
///    dispatched longest-first so one straggler group does not serialize
///    the tail. Each group runs serially through the Det+ engine choice
///    (internal::SolveExactGroup, src/core/lineage_dp.h): the subset DFS
///    below 13 candidates, the lineage DP for the dense 13..64-candidate
///    groups where the DFS would walk 2^m subsets. Every group value is
///    therefore the serial one, bit-identical for every thread count and
///    to SkylineSolver::Exact.
///  * all-objects Det+ — BatchExactSkylineProbabilities shares the
///    preprocessing and the pair probabilities across every target and
///    solves the targets largest-work-first, each group through the same
///    engine choice.
///
/// Time limits: a multi-solve query computes ONE shared deadline up
/// front (ExactOptions::deadline) and passes it to every group solve, so
/// the total wall time honors options.time_limit_seconds once — not once
/// per group, which previously allowed groups x limit overshoot.
///
/// Cancellation: ExactOptions::cancel is polled at the start of every
/// group solve and at the engines' bounded in-solve cadence. A token
/// cancelled before the solve starts yields Status::Cancelled at every
/// thread count; the first failing group in partition order decides the
/// returned status.

#include "src/core/exact.h"
#include "src/core/solver.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {

/// Det+ with longest-first parallel group solves. Same preprocessing and
/// per-group engine choice as SkylineSolver::Exact; per-group survival
/// factors multiply in partition order. Bit-identical to
/// SkylineSolver::Exact for every thread count of \p pool.
Result<double> ParallelExactSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const ExactOptions& options = {},
    SolveStats* stats = nullptr);

}  // namespace skypref

#endif  // SKYPREF_CORE_PARALLEL_H_
