#ifndef SKYPREF_CORE_SOLVER_H_
#define SKYPREF_CORE_SOLVER_H_

/// \file
/// The public facade: Det / Det+ / Sam / Sam+ (Table 2 of the paper).
///
/// SkylineSolver composes the building blocks: absorption and partition
/// preprocessing (Section 5) in front of either the exact inclusion-
/// exclusion solver (Algorithm 1) or the Monte-Carlo estimator
/// (Algorithm 2). With preprocessing enabled the solver first drops
/// null dominators (Pr(e_i) = 0) and absorbed candidates, then splits the
/// rest into independent groups and multiplies the per-group results
/// (Theorem 4).
///
/// Error budget under partitioning: if group survival probabilities
/// p_t in [0,1] are each estimated within eps_t, the product is within
/// sum_t eps_t (telescoping |prod a - prod b| <= sum |a_t - b_t|). Sam+
/// therefore splits epsilon and delta evenly across the groups it
/// actually samples; singleton groups are computed exactly for free.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/core/absorption.h"
#include "src/core/exact.h"
#include "src/core/monte_carlo.h"
#include "src/core/partition.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/rational.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace skypref {

struct SolverOptions {
  /// Run the null-dominator prune, absorption and partition first (the
  /// "+" algorithm variants).
  bool preprocess = true;
  /// Batch solves only: give each target that failed on a TRANSIENT
  /// fault (allocation failure, injected scheduler fault — never a blown
  /// budget or deadline, which fail identically on retry) one serial
  /// re-dispatch against the remaining shared deadline before stamping
  /// it NaN. Retry order is ascending ObjectId and salvaged values are
  /// bit-identical to their fault-free values; see
  /// BatchExactSkylineProbabilities.
  bool retry_failed_targets = true;
  ExactOptions exact;
  MonteCarloOptions monte_carlo;
};

/// Diagnostics of one solve, for benches and the CLI.
struct SolveStats {
  std::size_t candidates = 0;         ///< before preprocessing
  std::size_t pruned = 0;             ///< null dominators dropped
  /// Candidates left after the null-dominator prune and absorption;
  /// == candidates when preprocess off.
  std::size_t after_absorption = 0;
  std::size_t groups = 0;             ///< 1 when preprocess off
  std::size_t largest_group = 0;
  /// Size of every independence group, in partition order; drives the
  /// longest-first scheduling diagnostics of the parallel solvers.
  std::vector<std::size_t> group_sizes;
  std::uint64_t subsets_visited = 0;  ///< exact solves
  /// Exact solves: groups the Det+ engine choice sent to the lineage DP,
  /// and the DP level entries they created (src/core/lineage_dp.h).
  std::uint64_t lineage_groups = 0;
  std::uint64_t lineage_states = 0;
  std::uint64_t samples_drawn = 0;    ///< Monte-Carlo solves
  std::uint64_t pair_draws = 0;       ///< Monte-Carlo solves

  /// Folds one exact solve's counters in.
  void Add(const ExactStats& exact) {
    subsets_visited += exact.subsets_visited;
    lineage_groups += exact.lineage_groups;
    lineage_states += exact.lineage_states;
  }
};

/// The candidate groups of one per-target solve over every object of
/// \p data but \p target. With \p preprocess (the "+" variants) this is
/// the Det+/Sam+ preprocessing every per-target solver shares: the
/// null-dominator prune under \p null_test, absorption
/// (FilterAllCandidatesIndexed over \p postings, the whole-dataset
/// ValuePostings of \p data) and partition (Theorem 4). Without it, one
/// group holds every candidate. Fills the candidate and group fields of
/// \p stats (may be null). Requires target < data.size().
std::vector<std::vector<ObjectId>> PlanTarget(const Dataset& data,
                                              const ValuePostings& postings,
                                              ObjectId target, bool preprocess,
                                              const NullPairTest& null_test,
                                              SolveStats* stats = nullptr);

/// PlanTarget over a ValuePostings(data) built for this one call; callers
/// planning many targets of one dataset should build the postings once.
std::vector<std::vector<ObjectId>> PlanTarget(const Dataset& data,
                                              ObjectId target, bool preprocess,
                                              const NullPairTest& null_test,
                                              SolveStats* stats = nullptr);

/// Per-target Det / Det+ / Sam / Sam+ over one dataset and model. The
/// solver owns the whole-dataset ValuePostings, built once by Create, so
/// each solve's planning (PlanTarget) costs about the survivors it keeps
/// rather than a fresh index over every candidate. Copies share the
/// index; the const solves are safe to call concurrently.
class SkylineSolver {
 public:
  /// Validates the dataset (non-empty, no duplicate objects), binds it
  /// with the preference model and indexes the dataset's values. Both
  /// must outlive the solver.
  static Result<SkylineSolver> Create(const Dataset& data,
                                      const PreferenceModel& model);

  /// Det / Det+: exact sky(target).
  Result<double> Exact(ObjectId target, const SolverOptions& options = {},
                       SolveStats* stats = nullptr) const;

  /// Sam / Sam+: (epsilon, delta)-approximate sky(target). Dispatches on
  /// options.monte_carlo.engine; the kBlock engine runs over an inline
  /// pool here (bit-identical to the pool overload at any thread count).
  Result<double> MonteCarlo(ObjectId target, const SolverOptions& options = {},
                            SolveStats* stats = nullptr) const;

  /// Sam / Sam+ over \p pool: with the kBlock engine the per-group world
  /// blocks fan out across the pool's workers; estimates stay
  /// bit-identical to the poolless overload at every thread count (the
  /// kSerial engine ignores the pool entirely).
  Result<double> MonteCarlo(ObjectId target, const SolverOptions& options,
                            ThreadPool& pool,
                            SolveStats* stats = nullptr) const;

  /// The independent-dominance baseline ("Sac"), for comparison only.
  Result<double> Independent(ObjectId target) const;

  const Dataset& data() const { return *data_; }
  const PreferenceModel& model() const { return *model_; }

 private:
  SkylineSolver(const Dataset& data, const PreferenceModel& model)
      : data_(&data),
        model_(&model),
        postings_(std::make_shared<const ValuePostings>(data)) {}

  /// Shared Sam body; \p pool is null for the poolless overload (the
  /// kBlock engine then runs inline).
  Result<double> MonteCarloImpl(ObjectId target, const SolverOptions& options,
                                ThreadPool* pool, SolveStats* stats) const;

  const Dataset* data_;
  const PreferenceModel* model_;
  /// Of every object of *data_; immutable, so copies share it.
  std::shared_ptr<const ValuePostings> postings_;
};

/// Diagnostics of one batch all-objects solve.
struct BatchExactStats {
  std::size_t targets = 0;
  /// Candidates dropped by absorption (duplicates of the target
  /// included), summed over targets; disjoint from pruned_candidates.
  std::size_t absorbed = 0;
  /// Possible dominators dropped because some required orientation has
  /// probability exactly zero (they can never dominate in any world).
  /// Same meaning as BatchSamStats::pruned_candidates.
  std::size_t pruned_candidates = 0;
  std::size_t groups = 0;         ///< independence groups, summed over targets
  std::size_t largest_group = 0;  ///< across all targets
  /// Distinct (dim, value-pair) preference probabilities computed once
  /// and shared by every target's flattened pair table.
  std::size_t distinct_pair_probs = 0;
  std::uint64_t subsets_visited = 0;  ///< summed over all exact solves
  /// Per-target outcome, indexed by ObjectId. A target that exhausted
  /// its budget carries its ResourceExhausted here (and NaN in the
  /// result vector) while every other target keeps its exact value —
  /// one heavy target no longer aborts the whole batch. Size targets
  /// after a successful call.
  std::vector<Status> target_status;
  /// Number of non-OK entries in target_status.
  std::size_t failed_targets = 0;
  /// Targets re-dispatched by the retry salvage pass (transient failures
  /// only; see SolverOptions::retry_failed_targets).
  std::size_t retried_targets = 0;
  /// Retried targets whose re-dispatch succeeded; these carry their
  /// bit-identical exact value and an OK target_status, not NaN.
  std::size_t salvaged_targets = 0;
};

/// Exact sky(target) for EVERY object of the dataset (the all-objects
/// query shape of batch skyline-probability evaluation). Shares the
/// preprocessing across targets instead of redoing it per solve:
///
///  * the (dim, value) -> objects posting lists driving the null-dominator
///    prune and absorption are built once (the dominance-candidate
///    adjacency);
///  * the distinct preference probabilities Pr(a <= b) feeding the
///    flattened pair tables are computed once and reused by every
///    target whose table needs them;
///  * per-target solves are scheduled across \p pool largest-work-first
///    so a heavy target cannot serialize the tail.
///
/// Element i of the result is bit-identical to SkylineSolver::Exact(i)
/// with the same options, for every thread count of \p pool.
/// options.exact.max_subsets bounds each group solve as usual, but
/// options.exact.time_limit_seconds is converted into ONE deadline shared
/// by the whole batch.
///
/// Degradation contract: a target whose solve exhausts its budget or
/// deadline does NOT abort the batch. Its result slot is NaN, its Status
/// is recorded in BatchExactStats::target_status, and every other target
/// still receives its bit-identical exact value (salvage the failures
/// with the resilient ladder, src/core/resilient.h). Before stamping
/// NaN, targets that failed on TRANSIENT faults — allocation failure,
/// injected scheduler faults, anything ResourceExhausted that is not a
/// deterministic budget/deadline exhaustion — get one re-dispatch in
/// ascending ObjectId order against the remaining shared deadline
/// (SolverOptions::retry_failed_targets); salvaged values are
/// bit-identical to their fault-free values. The call itself fails only
/// on invalid input or when options.exact.cancel is tripped —
/// cancellation abandons the whole query with Status::Cancelled.
Result<std::vector<double>> BatchExactSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const SolverOptions& options = {}, BatchExactStats* stats = nullptr);

/// Sum of every object's exact skyline probability — the expected number
/// of skyline objects under the uncertain preferences (by linearity of
/// expectation). Runs BatchExactSkylineProbabilities over \p pool (see
/// above for budget/deadline semantics).
Result<double> ExpectedSkylineCardinality(const Dataset& data,
                                          const PreferenceModel& model,
                                          ThreadPool& pool,
                                          const SolverOptions& options = {});

/// Single-threaded convenience overload (an inline 0-thread pool);
/// bit-identical to the parallel overload at any thread count.
Result<double> ExpectedSkylineCardinality(const Dataset& data,
                                          const PreferenceModel& model,
                                          const SolverOptions& options = {});

namespace internal {

/// One target's share of a batch all-objects plan.
struct TargetPlan {
  std::vector<std::vector<ObjectId>> groups;  ///< as PlanTarget's
  std::size_t pruned = 0;    ///< null dominators dropped
  std::size_t absorbed = 0;  ///< absorbed candidates and duplicates
  /// ResourceExhausted when building the plan failed to allocate (site
  /// "alloc.batch.partition"); groups is then empty.
  Status status;
};

/// PlanTarget's preprocessing for one target of a batch, driven by the
/// whole-dataset \p postings: the prune marks null posting lists before
/// absorption scans the survivors.
TargetPlan PlanBatchTarget(const Dataset& data, ObjectId target,
                           const ValuePostings& postings,
                           const NullPairTest& null_test,
                           PartitionWorkspace& workspace);

/// Phase A of both batch engines (BatchExactSkylineProbabilities and the
/// Sam batch plan): element t is target t's plan. With \p preprocess it
/// builds \p postings once (the caller keeps them for retries) and fans
/// PlanBatchTarget over \p pool in chunks, each worker recycling one
/// partition workspace; without it every target gets one group holding
/// all other objects.
std::vector<TargetPlan> PlanBatchTargets(const Dataset& data, bool preprocess,
                                         const NullPairTest& null_test,
                                         ThreadPool& pool,
                                         std::optional<ValuePostings>& postings);

}  // namespace internal

/// Exact sky(target) in rational arithmetic — the bit-exact reference used
/// by the test suite. \p preprocess toggles the null-dominator prune
/// (whose zero test is exact rational here), absorption and partition,
/// whose product recombination is also exact in this mode.
Result<Rational> ExactSkylineProbabilityRational(
    const Dataset& data, ObjectId target, const RationalPreferenceModel& model,
    bool preprocess = false, const ExactOptions& options = {});

}  // namespace skypref

#endif  // SKYPREF_CORE_SOLVER_H_
