#include "src/core/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/core/dominance.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/hash.h"
#include "src/util/random.h"

namespace skypref {

std::uint64_t HoeffdingSampleSize(double epsilon, double delta) {
  if (epsilon <= 0.0 || delta <= 0.0 || delta >= 1.0) return 0;
  double m = std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon));
  // A tiny epsilon (1e-12 gives m ~ 1e24) overflows uint64, and casting
  // a double at or beyond 2^64 is undefined behavior — saturate instead.
  // static_cast<double>(UINT64_MAX) rounds up to exactly 2^64, so m below
  // the limit is guaranteed castable.
  constexpr double kLimit =
      static_cast<double>(std::numeric_limits<std::uint64_t>::max());
  if (!(m < kLimit)) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(m);
}

std::uint64_t AllWorldsSampleSize(double epsilon, double delta,
                                  std::size_t n) {
  if (n == 0) return 0;
  return HoeffdingSampleSize(epsilon, delta / static_cast<double>(n));
}

double HoeffdingEpsilon(std::uint64_t samples, double delta) {
  if (samples == 0 || delta <= 0.0 || delta >= 1.0) return 1.0;
  double eps = std::sqrt(std::log(2.0 / delta) /
                         (2.0 * static_cast<double>(samples)));
  return eps < 1.0 ? eps : 1.0;
}

namespace {

/// One world-sampling engine. Relevant preference variables are the
/// distinct pairs (dim, v) with v = Qi.j != O.j; only "is v preferred to
/// O.j" matters for O's skyline status, so outcomes are binary. Outcomes
/// are memoized per world with epoch stamps (no per-world clearing).
class WorldSampler {
 public:
  WorldSampler(const Dataset& data, ObjectId target,
               std::span<const ObjectId> candidates,
               const PreferenceModel& model)
      : dimensions_(static_cast<DimensionId>(data.dimensions())) {
    std::unordered_map<std::pair<DimensionId, ValueId>, std::uint32_t,
                       PairHash>
        pair_index;
    candidate_pairs_.reserve(candidates.size());
    for (ObjectId id : candidates) {
      Candidate c;
      for (DimensionId j = 0; j < dimensions_; ++j) {
        ValueId v = data.value(id, j);
        ValueId o = data.value(target, j);
        if (v == o) continue;
        auto [it, inserted] = pair_index.try_emplace(
            {j, v}, static_cast<std::uint32_t>(pair_prob_.size()));
        if (inserted) {
          double less_eq = model.LessEq(j, v, o);
          // Every Bernoulli parameter the sampler will ever draw from is
          // a model probability; catch a broken model before it skews
          // thousands of worlds.
          SKYPREF_DCHECK_PROB(less_eq);
          pair_prob_.push_back(less_eq);
        }
        c.pairs.push_back(it->second);
      }
      candidate_pairs_.push_back(std::move(c));
    }
    pair_epoch_.assign(pair_prob_.size(), 0);
    pair_outcome_.assign(pair_prob_.size(), false);
  }

  std::size_t candidate_count() const { return candidate_pairs_.size(); }
  std::size_t pair_count() const { return pair_prob_.size(); }

  /// Samples one world; returns true iff the target survives (no
  /// candidate dominates it). In lazy mode, pair outcomes are drawn only
  /// when first needed and the world is abandoned at the first dominator.
  bool SampleWorld(Rng& rng, bool lazy, std::uint64_t* pair_draws) {
    ++epoch_;
    if (!lazy) {
      for (std::uint32_t p = 0; p < pair_prob_.size(); ++p) {
        pair_outcome_[p] = rng.NextBernoulli(pair_prob_[p]);
        pair_epoch_[p] = epoch_;
        ++*pair_draws;
      }
    }
    for (const Candidate& c : candidate_pairs_) {
      bool dominates = true;
      for (std::uint32_t p : c.pairs) {
        if (pair_epoch_[p] != epoch_) {
          pair_epoch_[p] = epoch_;
          pair_outcome_[p] = rng.NextBernoulli(pair_prob_[p]);
          ++*pair_draws;
        }
        if (!pair_outcome_[p]) {
          dominates = false;
          break;
        }
      }
      // A candidate with no differing dimension would be a duplicate of
      // the target; Dataset::Validate rejects those, but be conservative.
      if (dominates && !c.pairs.empty()) return false;
    }
    return true;
  }

 private:
  struct Candidate {
    std::vector<std::uint32_t> pairs;  // indices into pair_prob_
  };

  DimensionId dimensions_;
  std::vector<double> pair_prob_;
  std::vector<Candidate> candidate_pairs_;
  std::vector<std::uint64_t> pair_epoch_;
  std::vector<bool> pair_outcome_;
  std::uint64_t epoch_ = 0;
};

}  // namespace

Result<MonteCarloResult> MonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const MonteCarloOptions& options) {
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

  // Algorithm 2 line 1: sort the checking sequence by dominance
  // probability, once, shared by all m iterations.
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

  // The sampler previously had no time limit at all — one adversarial
  // group could pin a worker for the full Hoeffding count. One deadline,
  // resolved like the exact solver's, now bounds the loop; cancellation
  // is polled at the same cadence.
  Deadline deadline = options.deadline.has_value()
                          ? options.deadline
                          : Deadline::After(options.time_limit_seconds);
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return CancelledStatus();
  }

  WorldSampler sampler(data, target, ordered, model);
  Rng rng(options.seed);
  MonteCarloResult result;
  result.requested_samples = samples;
  std::uint64_t drawn = 0;
  // Poll cadence: every 64 worlds OR every kPairDrawPollStride pair
  // draws, whichever comes first. The world cadence alone let one group
  // with enormous per-world cost (many candidates x dimensions) overshoot
  // the deadline by 64 expensive worlds; the pair-draw stride bounds the
  // work between polls by the finer unit. Cheap worlds never reach the
  // stride between polls, preserving the historical min(64, samples)
  // floor of truncated runs.
  constexpr std::uint64_t kPairDrawPollStride = 8192;
  std::uint64_t draws_at_last_poll = 0;
  for (std::uint64_t h = 0; h < samples; ++h) {
    if (sampler.SampleWorld(rng, options.lazy, &result.pair_draws)) {
      ++result.skyline_worlds;
    }
    drawn = h + 1;
    // Poll after sampling, so a truncated run always carries at least
    // one world and the estimate is well-defined.
    if (((drawn & 63) == 0 ||
         result.pair_draws - draws_at_last_poll >= kPairDrawPollStride) &&
        drawn < samples) {
      draws_at_last_poll = result.pair_draws;
      if (options.cancel != nullptr && options.cancel->cancelled()) {
        return CancelledStatus();
      }
      if (deadline.Expired() || SKYPREF_FAILPOINT("sampler.world")) {
        result.truncated = true;
        break;
      }
    }
  }
  result.samples = drawn;
  result.estimate = static_cast<double>(result.skyline_worlds) /
                    static_cast<double>(drawn);
  SKYPREF_DCHECK(result.skyline_worlds <= result.samples);
  SKYPREF_DCHECK_PROB(result.estimate);
  return result;
}

Result<MonteCarloResult> MonteCarloSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    const MonteCarloOptions& options) {
  std::vector<ObjectId> candidates;
  candidates.reserve(data.size() > 0 ? data.size() - 1 : 0);
  for (ObjectId id = 0; id < data.size(); ++id) {
    if (id != target) candidates.push_back(id);
  }
  return MonteCarloSkylineProbability(data, target, candidates, model,
                                      options);
}

}  // namespace skypref
