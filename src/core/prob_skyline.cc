#include "src/core/prob_skyline.h"

#include <algorithm>
#include <string>

#include "src/core/monte_carlo.h"
#include "src/core/sam_parallel.h"

namespace skypref {

namespace {

/// Every object's estimate from one shared-world batch, at the
/// union-bound world count unless the caller fixed one.
Result<std::vector<double>> EstimateEveryObject(const Dataset& data,
                                                const PreferenceModel& model,
                                                ThreadPool& pool,
                                                SolverOptions options) {
  MonteCarloOptions& mc = options.monte_carlo;
  if (mc.samples == 0) {
    mc.samples = AllWorldsSampleSize(mc.epsilon, mc.delta, data.size());
  }
  BatchSamStats stats;
  SKYPREF_ASSIGN_OR_RETURN(
      std::vector<double> estimates,
      BatchMonteCarloSkylineProbabilities(data, model, pool, options, &stats));
  if (stats.truncated) {
    return Status::ResourceExhausted(
        "all-objects sampling stopped after " + std::to_string(stats.samples) +
        " of " + std::to_string(stats.requested_samples) + " worlds");
  }
  return estimates;
}

}  // namespace

Result<std::vector<ObjectId>> ExactProbabilisticSkyline(
    const Dataset& data, const PreferenceModel& model, double tau,
    const BoundsOptions& options, ProbSkylineStats* stats) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  // Negated in-range test, so a NaN threshold is rejected too.
  if (!(tau > 0.0 && tau <= 1.0)) {
    return Status::InvalidArgument(
        "probabilistic skyline threshold must lie in (0,1]");
  }
  ProbSkylineStats local;
  std::vector<ObjectId> skyline;
  for (ObjectId target = 0; target < data.size(); ++target) {
    bool used_exact = false;
    SKYPREF_ASSIGN_OR_RETURN(
        bool above,
        DecideThreshold(data, target, model, tau, options, &used_exact));
    if (used_exact) {
      ++local.exact_fallbacks;
    } else {
      ++local.decided_by_bounds;
    }
    if (above) skyline.push_back(target);
  }
  if (stats != nullptr) *stats = local;
  return skyline;
}

Result<std::vector<ObjectId>> ProbabilisticSkyline(
    const Dataset& data, const PreferenceModel& model, double tau,
    ThreadPool& pool, const SolverOptions& options) {
  // Negated in-range test, so a NaN threshold is rejected too.
  if (!(tau > 0.0 && tau < 1.0)) {
    return Status::InvalidArgument(
        "probabilistic skyline threshold must lie in (0,1)");
  }
  SKYPREF_ASSIGN_OR_RETURN(std::vector<double> estimates,
                           EstimateEveryObject(data, model, pool, options));
  std::vector<ObjectId> skyline;
  for (ObjectId i = 0; i < estimates.size(); ++i) {
    if (estimates[i] >= tau) skyline.push_back(i);
  }
  return skyline;
}

Result<std::vector<std::pair<ObjectId, double>>> TopKSkyline(
    const Dataset& data, const PreferenceModel& model, std::size_t k,
    ThreadPool& pool, const SolverOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  SKYPREF_ASSIGN_OR_RETURN(std::vector<double> estimates,
                           EstimateEveryObject(data, model, pool, options));
  std::vector<std::pair<ObjectId, double>> ranked;
  ranked.reserve(estimates.size());
  for (ObjectId i = 0; i < estimates.size(); ++i) {
    ranked.emplace_back(i, estimates[i]);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace skypref
