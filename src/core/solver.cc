#include "src/core/solver.h"

#include <algorithm>

#include "src/core/absorption.h"
#include "src/core/dominance.h"
#include "src/core/lineage_dp.h"
#include "src/core/partition.h"
#include "src/core/sam_bitslice.h"
#include "src/core/sam_parallel.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/try_alloc.h"

namespace skypref {

namespace {

/// One Sam solve through the configured engine. The kSerial engine never
/// touches the pool; the kBlock and kBitSliced engines fan out over
/// \p pool, or an inline pool when the caller has none (bit-identical
/// either way).
Result<MonteCarloResult> RunSamEngine(const Dataset& data, ObjectId target,
                                      std::span<const ObjectId> candidates,
                                      const PreferenceModel& model,
                                      ThreadPool* pool,
                                      const MonteCarloOptions& options) {
  if (options.engine == MonteCarloOptions::Engine::kBlock ||
      options.engine == MonteCarloOptions::Engine::kBitSliced) {
    const bool sliced = options.engine == MonteCarloOptions::Engine::kBitSliced;
    auto run = [&](ThreadPool& p) {
      return sliced ? BitSlicedMonteCarloSkylineProbability(
                          data, target, candidates, model, p, options)
                    : BlockMonteCarloSkylineProbability(data, target,
                                                        candidates, model, p,
                                                        options);
    };
    if (pool != nullptr) return run(*pool);
    ThreadPool inline_pool(0);
    return run(inline_pool);
  }
  return MonteCarloSkylineProbability(data, target, candidates, model,
                                      options);
}

}  // namespace

std::vector<std::vector<ObjectId>> PlanTarget(const Dataset& data,
                                              const ValuePostings& postings,
                                              ObjectId target, bool preprocess,
                                              const NullPairTest& null_test,
                                              SolveStats* stats) {
  SolveStats local;
  local.candidates = data.size() - 1;
  std::vector<std::vector<ObjectId>> groups;
  if (preprocess) {
    AbsorptionStats filter;
    const std::vector<ObjectId> survivors =
        FilterAllCandidatesIndexed(data, target, postings, null_test, &filter);
    local.pruned = filter.pruned;
    local.after_absorption = survivors.size();
    groups = PartitionCandidates(data, target, survivors);
  } else {
    std::vector<ObjectId> candidates;
    candidates.reserve(data.size() - 1);
    for (ObjectId id = 0; id < data.size(); ++id) {
      if (id != target) candidates.push_back(id);
    }
    local.after_absorption = candidates.size();
    groups.push_back(std::move(candidates));
  }
  local.groups = groups.size();
  local.group_sizes.reserve(groups.size());
  for (const auto& group : groups) {
    local.largest_group = std::max(local.largest_group, group.size());
    local.group_sizes.push_back(group.size());
  }
  if (stats != nullptr) *stats = std::move(local);
  return groups;
}

std::vector<std::vector<ObjectId>> PlanTarget(const Dataset& data,
                                              ObjectId target, bool preprocess,
                                              const NullPairTest& null_test,
                                              SolveStats* stats) {
  // Without preprocessing the plan reads no postings; skip the index.
  const ValuePostings postings =
      preprocess ? ValuePostings(data)
                 : ValuePostings(data, std::span<const ObjectId>());
  return PlanTarget(data, postings, target, preprocess, null_test, stats);
}

namespace internal {

TargetPlan PlanBatchTarget(const Dataset& data, ObjectId target,
                           const ValuePostings& postings,
                           const NullPairTest& null_test,
                           PartitionWorkspace& workspace) {
  TargetPlan plan;
  AbsorptionStats filter;
  auto built = TryAlloc("alloc.batch.partition", [&] {
    std::vector<ObjectId> candidates = FilterAllCandidatesIndexed(
        data, target, postings, null_test, &filter);
    return PartitionCandidates(data, target,
                               std::span<const ObjectId>(candidates),
                               workspace);
  });
  if (!built.ok()) {
    plan.status = built.status();
    return plan;
  }
  plan.groups = std::move(built).value();
  plan.pruned = filter.pruned;
  plan.absorbed = filter.absorbed;
  return plan;
}

std::vector<TargetPlan> PlanBatchTargets(
    const Dataset& data, bool preprocess, const NullPairTest& null_test,
    ThreadPool& pool, std::optional<ValuePostings>& postings) {
  const std::size_t n = data.size();
  std::vector<TargetPlan> plans(n);
  if (!preprocess) {
    for (ObjectId t = 0; t < n; ++t) {
      plans[t].groups = PlanTarget(data, t, /*preprocess=*/false, null_test);
    }
    return plans;
  }
  postings.emplace(data);
  constexpr std::size_t kChunk = 16;
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  pool.ParallelFor(chunks, [&](std::size_t c) {
    PartitionWorkspace workspace;
    const std::size_t end = std::min(n, (c + 1) * kChunk);
    for (ObjectId t = c * kChunk; t < end; ++t) {
      plans[t] = PlanBatchTarget(data, t, *postings, null_test, workspace);
    }
  });
  return plans;
}

}  // namespace internal

Result<SkylineSolver> SkylineSolver::Create(const Dataset& data,
                                            const PreferenceModel& model) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  // One capped pass over the model's invariants (Pr(a<b)+Pr(b<a) <= 1,
  // orientation symmetry, self ties) before any probability is computed
  // from it; Create runs once per dataset so the cost is negligible.
  SKYPREF_RETURN_IF_ERROR(model.Validate(data));
  return SkylineSolver(data, model);
}

Result<double> SkylineSolver::Exact(ObjectId target,
                                    const SolverOptions& options,
                                    SolveStats* stats) const {
  if (target >= data_->size()) {
    return Status::OutOfRange("target object out of range");
  }
  DoubleOracle oracle(*model_);
  SolveStats local;
  std::vector<std::vector<ObjectId>> groups =
      PlanTarget(*data_, *postings_, target, options.preprocess,
                 NullPairTestOf(oracle), &local);
  ExactStats exact_stats;
  SKYPREF_ASSIGN_OR_RETURN(
      double result,
      internal::SolveExactGroups(*data_, target, groups, oracle, options.exact,
                                 options.preprocess, &exact_stats));
  local.Add(exact_stats);
  if (stats != nullptr) *stats = local;
  return result;
}

Result<double> SkylineSolver::MonteCarlo(ObjectId target,
                                         const SolverOptions& options,
                                         SolveStats* stats) const {
  return MonteCarloImpl(target, options, nullptr, stats);
}

Result<double> SkylineSolver::MonteCarlo(ObjectId target,
                                         const SolverOptions& options,
                                         ThreadPool& pool,
                                         SolveStats* stats) const {
  return MonteCarloImpl(target, options, &pool, stats);
}

Result<double> SkylineSolver::MonteCarloImpl(ObjectId target,
                                             const SolverOptions& options,
                                             ThreadPool* pool,
                                             SolveStats* stats) const {
  if (target >= data_->size()) {
    return Status::OutOfRange("target object out of range");
  }
  SolveStats local;
  std::vector<std::vector<ObjectId>> groups =
      PlanTarget(*data_, *postings_, target, options.preprocess,
                 NullPairTestOf(DoubleOracle(*model_)), &local);

  if (!options.preprocess) {
    SKYPREF_ASSIGN_OR_RETURN(
        MonteCarloResult mc,
        RunSamEngine(*data_, target, groups[0], *model_, pool,
                     options.monte_carlo));
    local.samples_drawn = mc.samples;
    local.pair_draws = mc.pair_draws;
    if (stats != nullptr) *stats = local;
    SKYPREF_DCHECK_PROB(mc.estimate);
    return ClampProbability(mc.estimate);
  }

  // Singleton groups are exact for free: Pr(no dominator) = 1 - Pr(e).
  std::vector<const std::vector<ObjectId>*> sampled_groups;
  double result = 1.0;
  for (const auto& group : groups) {
    if (group.size() == 1) {
      result *= 1.0 - DominanceProbability(*data_, group[0], target, *model_);
    } else {
      sampled_groups.push_back(&group);
    }
  }

  if (!sampled_groups.empty()) {
    // Split the error budget across the sampled groups (see file comment).
    MonteCarloOptions per_group = options.monte_carlo;
    if (per_group.samples == 0) {
      double share = static_cast<double>(sampled_groups.size());
      per_group.epsilon = options.monte_carlo.epsilon / share;
      per_group.delta = options.monte_carlo.delta / share;
    }
    Rng seeder(options.monte_carlo.seed);
    for (const auto* group : sampled_groups) {
      per_group.seed = seeder.Fork();
      SKYPREF_ASSIGN_OR_RETURN(
          MonteCarloResult mc,
          RunSamEngine(*data_, target, *group, *model_, pool, per_group));
      local.samples_drawn += mc.samples;
      local.pair_draws += mc.pair_draws;
      SKYPREF_DCHECK_PROB(mc.estimate);
      result *= mc.estimate;
    }
  }
  if (stats != nullptr) *stats = local;
  SKYPREF_DCHECK_PROB(result);
  return ClampProbability(result);
}

Result<double> SkylineSolver::Independent(ObjectId target) const {
  if (target >= data_->size()) {
    return Status::OutOfRange("target object out of range");
  }
  double product = 1.0;
  for (ObjectId id = 0; id < data_->size(); ++id) {
    if (id == target) continue;
    product *= 1.0 - DominanceProbability(*data_, id, target, *model_);
  }
  SKYPREF_DCHECK_PROB(product);
  return ClampProbability(product);
}

Result<double> ExpectedSkylineCardinality(const Dataset& data,
                                          const PreferenceModel& model,
                                          ThreadPool& pool,
                                          const SolverOptions& options) {
  BatchExactStats batch_stats;
  SKYPREF_ASSIGN_OR_RETURN(
      std::vector<double> skylines,
      BatchExactSkylineProbabilities(data, model, pool, options,
                                     &batch_stats));
  // The cardinality is a sum over ALL targets, so the batch's per-target
  // salvage does not apply here: the first failed target's status (in
  // target order) fails the whole query, matching the pre-salvage
  // behavior.
  for (const Status& status : batch_stats.target_status) {
    SKYPREF_RETURN_IF_ERROR(status);
  }
  // Plain left-to-right sum in target order: the legacy overload summed the
  // per-target results the same way, so the total stays bit-identical.
  double total = 0.0;
  // skypref-analyze: allow(kahan-discipline)
  for (double sky : skylines) total += sky;
  return total;
}

Result<double> ExpectedSkylineCardinality(const Dataset& data,
                                          const PreferenceModel& model,
                                          const SolverOptions& options) {
  ThreadPool pool(0);  // inline execution, no worker threads
  return ExpectedSkylineCardinality(data, model, pool, options);
}

Result<Rational> ExactSkylineProbabilityRational(
    const Dataset& data, ObjectId target, const RationalPreferenceModel& model,
    bool preprocess, const ExactOptions& options) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  RationalOracle oracle(model);
  Rational result(1);
  for (const auto& group : PlanTarget(data, target, preprocess,
                                      NullPairTestOf(oracle))) {
    SKYPREF_ASSIGN_OR_RETURN(
        Rational group_prob,
        ExactSkylineProbability(data, target, group, oracle, options));
    result = result * group_prob;
  }
  return result;
}

}  // namespace skypref
