#ifndef SKYPREF_CORE_LINEAGE_DP_H_
#define SKYPREF_CORE_LINEAGE_DP_H_

/// \file
/// Det+'s second exact engine — Shannon expansion over preference
/// variables — and the per-group choice between it and the subset DFS.
///
/// Algorithm 1 enumerates candidate SUBSETS (2^m terms). But sky(O) is
/// the probability that a monotone DNF over independent binary variables
/// is false — the variables are the distinct pairs "value v beats O.j"
/// (the pair ids of a FlatInstance), and each candidate is the
/// conjunction of its differing dimensions' variables. Probabilistic-
/// database lineage evaluation suggests the dual attack: branch on
/// VARIABLES, merging the branches that reach the same state.
///
/// A candidate is alive iff every one of its requirements decided so far
/// came out true; the alive set captures the entire past. The DP sweeps
/// forward one variable at a time: level i holds the distinct alive sets
/// reached after i variables, each with its probability mass. Step i
/// carries an entry whose alive set misses the variable (it integrates to
/// 1) and splits the others: mass * p keeps the alive set, mass * (1 - p)
/// kills the variable's candidates; a branch of probability 0 is skipped.
/// A successor with an alive candidate that has no requirement left is
/// dropped (O is dominated there); one with no alive candidate adds to
/// the survival sum. Equal successors merge, which collapses the tree
/// wherever prefixes reach the same survivor set — on dense data
/// constantly. Entries keep first-insertion order and masses add in that
/// order, so the bits depend on the variable order alone; two levels live.
///
/// Variable order: greedy min-frontier. A candidate is "open" while some
/// of its requirements are decided and some still pending; only open
/// candidates can vary across the alive sets of one index (untouched
/// ones are all alive, decided alive ones end the branch). Each step
/// picks the variable that leaves the fewest open candidates (ties: the
/// variable more candidates require, then first appearance). The same
/// pass sums 2^(open candidates) over the steps, in O(variables^2): level
/// i holds at most 2^(open candidates at i) entries, so the sum bounds
/// the entries of the whole sweep.
///
/// Engine choice (internal::SolveExactGroup, used by every Det+ group
/// solve): the subset DFS keeps groups under kLineageMinCandidates (13),
/// groups over 64 candidates (the alive set is one machine word), the
/// kLookup reference engine and plain Det. A group of 13..64 candidates
/// runs the DP when the predicted state bound is below the DFS's 2^m
/// subsets. On the paper's uniform data (d=5, 10 values, n=22) every
/// target's ~21-candidate group takes the DP, at ~7k entries instead of
/// 2M subsets; block-Zipf groups (<= 11 candidates) and Nursery's
/// singletons never reach it. bench_lineage measures the crossover.
///
/// The DP honours ExactOptions like the DFS: each new level entry charges
/// one unit against max_subsets, and the failpoint ("lineage.state"),
/// the cancel token and the deadline are consulted at the start of a
/// solve and every 1,024 entries.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/exact.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/check.h"
#include "src/util/rational.h"
#include "src/util/status.h"
#include "src/util/try_alloc.h"

namespace skypref {

struct LineageDpOptions {
  /// Abort with ResourceExhausted once one level would hold more entries
  /// (0 = unlimited): the DP's memory cap; ExactOptions::max_subsets caps
  /// the total work. In doubles an entry of the widest level costs at
  /// most 88 B: alive set and mass (16 B) in both live levels, doubled for
  /// vector growth (64 B); <= 4 index slots of 4 B (16 B); a used-slot
  /// record, doubled for growth (8 B). The default keeps the live levels
  /// within 256 MiB: 2^28 / 88 = 3,050,402 entries.
  std::uint64_t max_states = (std::uint64_t{1} << 28) / 88;
};

struct LineageDpStats {
  std::size_t variables = 0;
  std::uint64_t states = 0;     ///< level entries created (charged)
  std::uint64_t memo_hits = 0;  ///< successors merged into an entry
  std::uint64_t peak_level_entries = 0;  ///< entries of the widest level
};

/// Groups with fewer candidates always run the subset DFS. The DP leads
/// from about 8 candidates in bench_lineage's crossover (EXPERIMENTS.md);
/// 13 keeps every block-Zipf group of the paper's geometry (blocks of 12)
/// on the DFS behind one size compare.
inline constexpr std::size_t kLineageMinCandidates = 13;

/// The DP's alive set is one 64-bit word.
inline constexpr std::size_t kLineageMaxCandidates = 64;

/// Exact sky(target) over the given candidates (at most 64; use
/// absorption + partition to get there) through the lineage DP, whatever
/// the group size. Numeric-generic like ExactSkylineProbability: equal to
/// it exactly under RationalOracle, up to floating-point association in
/// doubles.
template <typename Oracle>
Result<typename Oracle::NumType> LineageExactSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const Oracle& oracle, const ExactOptions& exact = {},
    const LineageDpOptions& options = {}, LineageDpStats* stats = nullptr);

/// Double-precision convenience over a PreferenceModel.
Result<double> LineageExactSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const LineageDpOptions& options = {},
    LineageDpStats* stats = nullptr);

/// Det+ through the per-group engine choice: absorption + partition, then
/// each group on the DP or the subset DFS (internal::SolveExactGroup).
/// \p stats sums the DP's counters over the groups that ran it.
Result<double> LineageExactWithPreprocessing(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const LineageDpOptions& options = {}, LineageDpStats* stats = nullptr);

// -------------------------------------------------------------------------
// Implementation
// -------------------------------------------------------------------------

namespace internal {

/// The DP's variables over one flattened group, in decision order.
struct LineageOrder {
  std::vector<std::uint32_t> pairs;  ///< FlatInstance pair id of each step
  std::vector<std::uint64_t> masks;  ///< candidates requiring that pair
  std::uint64_t alive = 0;           ///< candidates with any requirement
  /// Sum over the steps of 2^(open candidates), saturating: an upper
  /// bound on the entries the DP creates.
  std::uint64_t state_bound = 0;
};

/// The greedy min-frontier order (see the file comment) of a flattened
/// group of at most 64 candidates, given its CSR pair lists.
LineageOrder OrderLineageVariables(std::span<const std::uint32_t> pair_ids,
                                   std::span<const std::uint32_t> offsets,
                                   std::size_t pair_count);

/// Runs the DP over \p order; pair_prob[p] is Pr(v <= O.j) of pair id p.
/// \p levels, when set, receives the entry count of every level the sweep
/// steps from. Instantiated for double and Rational.
template <typename Num>
Result<Num> SolveLineage(const LineageOrder& order,
                         std::span<const Num> pair_prob,
                         const ExactOptions& options,
                         const LineageDpOptions& dp, LineageDpStats* stats,
                         std::vector<std::uint64_t>* levels = nullptr);

extern template Result<double> SolveLineage<double>(
    const LineageOrder&, std::span<const double>, const ExactOptions&,
    const LineageDpOptions&, LineageDpStats*, std::vector<std::uint64_t>*);
extern template Result<Rational> SolveLineage<Rational>(
    const LineageOrder&, std::span<const Rational>, const ExactOptions&,
    const LineageDpOptions&, LineageDpStats*, std::vector<std::uint64_t>*);

/// Whether the DP's predicted states undercut the DFS's 2^m subsets.
inline bool LineageIsCheaper(const LineageOrder& order,
                             std::size_t candidates) {
  const std::uint64_t subsets = candidates >= 64
                                    ? ~std::uint64_t{0}
                                    : std::uint64_t{1} << candidates;
  return order.state_bound < subsets;
}

/// One Det+ group solve: the engine choice of the file comment. The
/// small-group path is ExactSkylineProbability behind one size compare.
/// Fills stats->subsets_visited (DFS) or stats->lineage_groups = 1 and
/// stats->lineage_states (DP); \p dp_stats, when set, receives the DP's
/// own counters.
template <typename Oracle>
Result<typename Oracle::NumType> SolveExactGroup(
    const Dataset& data, ObjectId target, std::span<const ObjectId> group,
    const Oracle& oracle, const ExactOptions& options,
    ExactStats* stats = nullptr, const LineageDpOptions& dp = {},
    LineageDpStats* dp_stats = nullptr) {
  using Num = typename Oracle::NumType;
  if (group.size() < kLineageMinCandidates ||
      group.size() > kLineageMaxCandidates ||
      options.engine == ExactOptions::Engine::kLookup) {
    return ExactSkylineProbability(data, target, group, oracle, options,
                                   stats);
  }
  SKYPREF_RETURN_IF_ERROR(ValidateExactInputs(data, target, group, oracle));
  SKYPREF_ASSIGN_OR_RETURN(
      FlatInstance<Oracle> instance,
      TryAlloc("alloc.exact.flat_instance", [&] {
        return BuildFlatInstance(data, target, group, oracle);
      }));
  const LineageOrder order = OrderLineageVariables(
      instance.pair_ids, instance.offsets, instance.pair_count());
  if (!LineageIsCheaper(order, group.size())) {
    FlatExactEngine<Oracle> engine(instance, options);
    return engine.Run(stats);
  }
  LineageDpStats local;
  Result<Num> result = SolveLineage<Num>(
      order, std::span<const Num>(instance.pair_prob), options, dp, &local);
  if (stats != nullptr) {
    *stats = ExactStats{};
    stats->lineage_groups = 1;
    stats->lineage_states = local.states;
  }
  if (dp_stats != nullptr) *dp_stats = local;
  return result;
}

/// One target's exact solve over its planned groups: each group through
/// SolveExactGroup — or, for plain Det (\p preprocess off), the subset
/// DFS — and the survival factors multiplied in partition order. Stops
/// at the first failing group; \p stats (may be null) sums the counters
/// of every group solved, the failing one included.
template <typename Oracle>
Result<double> SolveExactGroups(
    const Dataset& data, ObjectId target,
    const std::vector<std::vector<ObjectId>>& groups, const Oracle& oracle,
    const ExactOptions& options, bool preprocess, ExactStats* stats) {
  double product = 1.0;
  for (const auto& group : groups) {
    ExactStats group_stats;
    Result<double> result =
        preprocess ? SolveExactGroup(data, target, group, oracle, options,
                                     &group_stats)
                   : ExactSkylineProbability(data, target, group, oracle,
                                             options, &group_stats);
    if (stats != nullptr) stats->Add(group_stats);
    if (!result.ok()) return result.status();
    SKYPREF_DCHECK_PROB(result.value());
    product *= result.value();
  }
  SKYPREF_DCHECK_PROB(product);
  return ClampProbability(product);
}

}  // namespace internal

template <typename Oracle>
Result<typename Oracle::NumType> LineageExactSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const Oracle& oracle, const ExactOptions& exact,
    const LineageDpOptions& options, LineageDpStats* stats) {
  using Num = typename Oracle::NumType;
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  if (candidates.size() > kLineageMaxCandidates) {
    return Status::ResourceExhausted(
        "lineage DP supports at most 64 candidates per call; run "
        "absorption + partition first");
  }
  SKYPREF_RETURN_IF_ERROR(
      internal::ValidateExactInputs(data, target, candidates, oracle));
  const internal::FlatInstance<Oracle> instance =
      internal::BuildFlatInstance(data, target, candidates, oracle);
  const internal::LineageOrder order = internal::OrderLineageVariables(
      instance.pair_ids, instance.offsets, instance.pair_count());
  return internal::SolveLineage<Num>(
      order, std::span<const Num>(instance.pair_prob), exact, options, stats);
}

}  // namespace skypref

#endif  // SKYPREF_CORE_LINEAGE_DP_H_
