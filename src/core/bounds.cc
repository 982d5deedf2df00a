#include "src/core/bounds.h"

#include <algorithm>
#include <vector>

#include "src/core/exact.h"
#include "src/core/lineage_dp.h"
#include "src/core/solver.h"
#include "src/util/kahan.h"

namespace skypref {

namespace {

/// Evaluates level sums S_k of Eq. 4 one level at a time, sharing the
/// per-dimension "distinct value" stamps across subsets.
class LevelEvaluator {
 public:
  LevelEvaluator(const Dataset& data, ObjectId target,
                 std::span<const ObjectId> candidates,
                 const PreferenceModel& model)
      : data_(data), target_(target), candidates_(candidates), model_(model) {
    seen_.resize(data.dimensions());
    for (DimensionId j = 0; j < data.dimensions(); ++j) {
      ValueId bound = data.value(target, j) + 1;
      for (ObjectId id : candidates) {
        bound = std::max(bound, static_cast<ValueId>(data.value(id, j) + 1));
      }
      seen_[j].assign(bound, 0);
    }
  }

  /// Number of terms in level k: C(n, k), saturating.
  std::uint64_t LevelTermCount(std::size_t k) const {
    const std::size_t n = candidates_.size();
    if (k > n) return 0;
    std::uint64_t count = 1;
    for (std::size_t i = 0; i < k; ++i) {
      if (count > (std::uint64_t{1} << 62) / (n - i)) {
        return std::uint64_t{1} << 63;  // saturate; caller compares budgets
      }
      count = count * (n - i) / (i + 1);
    }
    return count;
  }

  /// Sum of joint probabilities over all subsets of size k.
  double EvaluateLevel(std::size_t k, std::uint64_t* terms) {
    const std::size_t n = candidates_.size();
    KahanSum sum;
    std::vector<std::size_t> comb(k);
    for (std::size_t i = 0; i < k; ++i) comb[i] = i;
    while (true) {
      ++term_id_;
      double joint = 1.0;
      for (std::size_t pos : comb) {
        std::span<const ValueId> q = data_.object(candidates_[pos]);
        for (DimensionId j = 0; j < data_.dimensions(); ++j) {
          ValueId v = q[j];
          if (v == data_.value(target_, j)) continue;
          if (seen_[j][v] != term_id_) {
            seen_[j][v] = term_id_;
            joint *= model_.LessEq(j, v, data_.value(target_, j));
          }
        }
      }
      sum.Add(joint);
      ++*terms;

      std::size_t i = k;
      while (i > 0 && comb[i - 1] == n - k + (i - 1)) --i;
      if (i == 0) break;
      ++comb[i - 1];
      for (std::size_t t = i; t < k; ++t) comb[t] = comb[t - 1] + 1;
    }
    return sum.Value();
  }

 private:
  const Dataset& data_;
  ObjectId target_;
  std::span<const ObjectId> candidates_;
  const PreferenceModel& model_;
  std::vector<std::vector<std::uint64_t>> seen_;
  std::uint64_t term_id_ = 0;
};

}  // namespace

Result<SkylineBounds> BoundedSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const BoundsOptions& options) {
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

  SkylineBounds bounds;
  const std::size_t n = candidates.size();
  if (n == 0) {
    bounds.lower = bounds.upper = 1.0;
    bounds.exact = true;
    return bounds;
  }

  LevelEvaluator evaluator(data, target, candidates, model);
  const std::size_t max_level = std::min(options.max_level, n);
  KahanSum truncated(1.0);  // 1 - S1 + S2 - ...
  for (std::size_t k = 1; k <= max_level; ++k) {
    std::uint64_t level_terms = evaluator.LevelTermCount(k);
    if (options.term_budget != 0 &&
        bounds.terms_computed + level_terms > options.term_budget) {
      break;  // level would not complete; a partial level certifies nothing
    }
    double level_sum = evaluator.EvaluateLevel(k, &bounds.terms_computed);
    truncated.Add(k % 2 == 1 ? -level_sum : level_sum);
    double value = truncated.Value();
    if (k % 2 == 1) {
      bounds.lower = std::max(bounds.lower, std::min(1.0, value));
    } else {
      bounds.upper = std::min(bounds.upper, std::max(0.0, value));
    }
    bounds.level = k;
    if (k == n) {
      // All levels computed: the truncation IS the exact value.
      double exact = std::clamp(value, 0.0, 1.0);
      bounds.lower = bounds.upper = exact;
      bounds.exact = true;
      break;
    }
    // Bonferroni bounds from different levels may cross only through
    // floating-point noise; keep the interval well-formed.
    if (bounds.lower > bounds.upper) {
      double mid = 0.5 * (bounds.lower + bounds.upper);
      bounds.lower = bounds.upper = mid;
    }
  }
  return bounds;
}

Result<SkylineBounds> BoundedSkylineProbability(const Dataset& data,
                                                ObjectId target,
                                                const PreferenceModel& model,
                                                const BoundsOptions& options) {
  std::vector<ObjectId> candidates;
  candidates.reserve(data.size() > 0 ? data.size() - 1 : 0);
  for (ObjectId id = 0; id < data.size(); ++id) {
    if (id != target) candidates.push_back(id);
  }
  return BoundedSkylineProbability(data, target, candidates, model, options);
}

namespace {

Result<SkylineBounds> GroupProductBounds(
    const Dataset& data, ObjectId target,
    const std::vector<std::vector<ObjectId>>& groups,
    const PreferenceModel& model, const BoundsOptions& options) {
  SkylineBounds combined;
  combined.lower = 1.0;
  combined.upper = 1.0;
  combined.exact = true;
  for (const auto& group : groups) {
    SKYPREF_ASSIGN_OR_RETURN(
        SkylineBounds group_bounds,
        BoundedSkylineProbability(data, target, group, model, options));
    combined.lower *= group_bounds.lower;
    combined.upper *= group_bounds.upper;
    combined.exact = combined.exact && group_bounds.exact;
    combined.terms_computed += group_bounds.terms_computed;
    combined.level = std::max(combined.level, group_bounds.level);
  }
  return combined;
}

}  // namespace

Result<SkylineBounds> BoundedSkylineProbabilityPreprocessed(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const BoundsOptions& options) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  return GroupProductBounds(
      data, target,
      PlanTarget(data, target, /*preprocess=*/true,
                 NullPairTestOf(DoubleOracle(model))),
      model, options);
}

Result<bool> DecideThreshold(const Dataset& data, ObjectId target,
                             const PreferenceModel& model, double tau,
                             const BoundsOptions& options,
                             bool* used_exact_fallback) {
  if (used_exact_fallback != nullptr) *used_exact_fallback = false;
  // Negated in-range test, so a NaN threshold is rejected too.
  if (!(tau >= 0.0 && tau <= 1.0)) {
    return Status::InvalidArgument("threshold must lie in [0,1]");
  }
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  std::vector<std::vector<ObjectId>> groups = PlanTarget(
      data, target, /*preprocess=*/true, NullPairTestOf(DoubleOracle(model)));

  // Escalate the bound level until the interval excludes tau.
  for (std::size_t level = 1; level <= options.max_level; ++level) {
    BoundsOptions level_options = options;
    level_options.max_level = level;
    SKYPREF_ASSIGN_OR_RETURN(
        SkylineBounds bounds,
        GroupProductBounds(data, target, groups, model, level_options));
    if (bounds.lower >= tau) return true;
    if (bounds.upper < tau) return false;
    if (bounds.exact) return bounds.lower >= tau;
  }

  // Bounds inconclusive: the exact Det+ fallback, each group through the
  // engine choice (the lineage DP for dense groups of 13..64 candidates).
  if (used_exact_fallback != nullptr) *used_exact_fallback = true;
  SKYPREF_ASSIGN_OR_RETURN(
      double exact,
      internal::SolveExactGroups(data, target, groups, DoubleOracle(model),
                                 ExactOptions{}, /*preprocess=*/true,
                                 nullptr));
  return exact >= tau;
}

}  // namespace skypref
