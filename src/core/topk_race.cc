#include "src/core/topk_race.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "src/util/hash.h"
#include "src/util/random.h"

namespace skypref {

namespace {

struct Interval {
  double lower = 0.0;
  double upper = 1.0;
};

/// Shared-world sampling plan for the race: a table of ternary
/// preference variables plus, per object, its possible dominators sorted
/// by dominance probability (the Algorithm-2 checking sequence applied
/// to every target). Candidates with dominance probability exactly zero
/// are dropped — they can never dominate in any world.
///
/// Preferences are sampled lazily and memoized per world, so two objects
/// querying the same value pair see the same orientation; sampled worlds
/// need not be transitive, so membership is decided by direct dominator
/// search. Unlike the batch samplers, the race evaluates a shrinking set
/// of objects world by world, which is why it keeps this per-world plan.
class SharedWorldSampler {
 public:
  SharedWorldSampler(const Dataset& data, const PreferenceModel& model);

  /// Advances to a fresh world; previously sampled outcomes are dropped.
  void NextWorld() { ++epoch_; }

  /// True iff \p target survives (is undominated in) the current world.
  /// Preferences are sampled on demand from \p rng and shared across all
  /// Survives() calls of the same world.
  bool Survives(ObjectId target, Rng& rng);

 private:
  enum class Orientation : std::uint8_t {
    kLoPreferred,
    kHiPreferred,
    kIncomparable,
  };
  struct Requirement {
    std::uint32_t pair_index;
    Orientation want;
  };
  struct Candidate {
    double dominance_probability;
    std::vector<Requirement> requirements;
  };
  struct PairKey {
    DimensionId dim;
    ValueId lo;
    ValueId hi;
    bool operator==(const PairKey& o) const {
      return dim == o.dim && lo == o.lo && hi == o.hi;
    }
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const {
      std::size_t h = HashCombine(std::size_t{0xfeed1234}, k.dim);
      h = HashCombine(h, k.lo);
      return HashCombine(h, k.hi);
    }
  };

  std::vector<double> pair_less_;
  std::vector<double> pair_greater_;
  std::vector<std::vector<Candidate>> per_target_;
  std::vector<Orientation> outcome_;
  std::vector<std::uint64_t> epoch_mark_;
  std::uint64_t epoch_ = 0;
};

SharedWorldSampler::SharedWorldSampler(const Dataset& data,
                                       const PreferenceModel& model) {
  const DimensionId d = static_cast<DimensionId>(data.dimensions());
  const std::size_t n = data.size();
  std::unordered_map<PairKey, std::uint32_t, PairKeyHash> pair_index;
  per_target_.resize(n);
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId c = 0; c < n; ++c) {
      if (c == i) continue;
      Candidate candidate;
      candidate.dominance_probability = 1.0;
      bool possible = true;
      for (DimensionId j = 0; j < d && possible; ++j) {
        ValueId vc = data.value(c, j);
        ValueId vi = data.value(i, j);
        if (vc == vi) continue;
        ValueId lo = std::min(vc, vi);
        ValueId hi = std::max(vc, vi);
        PrefPair pair = model.GetPair(j, lo, hi);
        double toward_candidate = vc == lo ? pair.less : pair.greater;
        // Exact-zero test: Pr = 0 means the orientation can never be
        // drawn, so the candidate is pruned from the sampling plan.
        if (toward_candidate == 0.0) {  // skypref-lint: allow(float-eq)
          possible = false;
          break;
        }
        candidate.dominance_probability *= toward_candidate;
        auto [it, inserted] = pair_index.try_emplace(
            PairKey{j, lo, hi}, static_cast<std::uint32_t>(pair_less_.size()));
        if (inserted) {
          pair_less_.push_back(pair.less);
          pair_greater_.push_back(pair.greater);
        }
        candidate.requirements.push_back(
            Requirement{it->second, vc == lo ? Orientation::kLoPreferred
                                             : Orientation::kHiPreferred});
      }
      // A candidate with no differing dimension would duplicate the
      // target; Dataset::Validate guarantees that cannot happen.
      if (possible && !candidate.requirements.empty()) {
        per_target_[i].push_back(std::move(candidate));
      }
    }
    std::stable_sort(per_target_[i].begin(), per_target_[i].end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.dominance_probability >
                              b.dominance_probability;
                     });
  }
  outcome_.assign(pair_less_.size(), Orientation::kIncomparable);
  epoch_mark_.assign(pair_less_.size(), 0);
}

bool SharedWorldSampler::Survives(ObjectId target, Rng& rng) {
  for (const Candidate& candidate : per_target_[target]) {
    bool dominates = true;
    for (const Requirement& req : candidate.requirements) {
      if (epoch_mark_[req.pair_index] != epoch_) {
        epoch_mark_[req.pair_index] = epoch_;
        double u = rng.NextDouble();
        if (u < pair_less_[req.pair_index]) {
          outcome_[req.pair_index] = Orientation::kLoPreferred;
        } else if (u < pair_less_[req.pair_index] +
                           pair_greater_[req.pair_index]) {
          outcome_[req.pair_index] = Orientation::kHiPreferred;
        } else {
          outcome_[req.pair_index] = Orientation::kIncomparable;
        }
      }
      if (outcome_[req.pair_index] != req.want) {
        dominates = false;
        break;
      }
    }
    if (dominates) return false;
  }
  return true;
}

}  // namespace

Result<TopKRaceResult> TopKSkylineRace(const Dataset& data,
                                       const PreferenceModel& model,
                                       std::size_t k,
                                       const TopKRaceOptions& options) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  const std::size_t n = data.size();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k must satisfy 1 <= k <= n, got " +
                                   std::to_string(k));
  }
  if (options.delta <= 0.0 || options.delta >= 1.0 ||
      options.epsilon_floor <= 0.0 || options.batch == 0) {
    return Status::InvalidArgument("invalid race options");
  }

  // Worlds that drive every interval below epsilon_floor/2, after which
  // the race declares unresolvable ties. The per-test confidence is
  // delta / (n * rounds) by a union bound over objects and checkpoints.
  const double half_floor = options.epsilon_floor / 2.0;
  std::uint64_t max_worlds = options.max_worlds;
  if (max_worlds == 0) {
    // First pass with a generous round guess, then refine.
    double rough_rounds = 64.0;
    double log_term =
        std::log(2.0 * static_cast<double>(n) * rough_rounds / options.delta);
    max_worlds = static_cast<std::uint64_t>(
        std::ceil(log_term / (2.0 * half_floor * half_floor)));
  }
  const std::uint64_t rounds_cap = max_worlds / options.batch + 1;
  const double delta_per_test =
      options.delta /
      (static_cast<double>(n) * static_cast<double>(rounds_cap));
  const double log_term = std::log(2.0 / delta_per_test);

  SharedWorldSampler sampler(data, model);
  Rng rng(options.seed);

  enum class State : std::uint8_t { kAlive, kIn, kOut };
  std::vector<State> state(n, State::kAlive);
  std::vector<std::uint64_t> survived(n, 0);
  std::vector<std::uint64_t> evaluated_worlds(n, 0);
  std::vector<Interval> intervals(n);

  TopKRaceResult result;
  result.estimates.assign(n, 0.0);
  std::size_t in_count = 0;
  std::size_t out_count = 0;

  while (result.worlds < max_worlds) {
    const std::uint64_t batch =
        std::min<std::uint64_t>(options.batch, max_worlds - result.worlds);
    for (std::uint64_t b = 0; b < batch; ++b) {
      sampler.NextWorld();
      for (ObjectId i = 0; i < n; ++i) {
        if (state[i] != State::kAlive) continue;
        if (sampler.Survives(i, rng)) ++survived[i];
        ++evaluated_worlds[i];
        ++result.evaluations;
      }
    }
    result.worlds += batch;

    // Refresh intervals of alive objects (settled ones stay frozen; their
    // Hoeffding bound at freeze time remains valid).
    bool all_narrow = true;
    for (ObjectId i = 0; i < n; ++i) {
      if (state[i] != State::kAlive) continue;
      double t = static_cast<double>(evaluated_worlds[i]);
      double estimate = static_cast<double>(survived[i]) / t;
      double radius = std::sqrt(log_term / (2.0 * t));
      result.estimates[i] = estimate;
      intervals[i].lower = std::max(0.0, estimate - radius);
      intervals[i].upper = std::min(1.0, estimate + radius);
      if (radius >= half_floor) all_narrow = false;
    }

    // Settlement: i is IN when at most k-1 others can still beat it,
    // OUT when at least k others are surely at or above its upper bound.
    std::vector<double> lowers;
    std::vector<double> uppers;
    lowers.reserve(n);
    uppers.reserve(n);
    for (ObjectId j = 0; j < n; ++j) {
      lowers.push_back(intervals[j].lower);
      uppers.push_back(intervals[j].upper);
    }
    std::sort(lowers.begin(), lowers.end());
    std::sort(uppers.begin(), uppers.end());
    for (ObjectId i = 0; i < n; ++i) {
      if (state[i] != State::kAlive) continue;
      // Others with upper > my lower (subtract myself when counted).
      auto above = static_cast<std::size_t>(
          uppers.end() -
          std::upper_bound(uppers.begin(), uppers.end(), intervals[i].lower));
      if (intervals[i].upper > intervals[i].lower) --above;  // myself
      if (above <= k - 1) {
        state[i] = State::kIn;
        ++in_count;
        continue;
      }
      // Others with lower >= my upper.
      auto surely_above = static_cast<std::size_t>(
          lowers.end() -
          std::lower_bound(lowers.begin(), lowers.end(), intervals[i].upper));
      if (surely_above >= k) {
        state[i] = State::kOut;
        ++out_count;
      }
    }

    if (in_count == k || out_count == n - k) {
      result.resolved = true;
      break;
    }
    if (all_narrow) break;  // epsilon_floor ties: cut by estimate below
  }

  // Assemble the answer: surely-IN objects first, then the best alive
  // ones by estimate until k are selected.
  std::vector<ObjectId> alive_sorted;
  for (ObjectId i = 0; i < n; ++i) {
    if (state[i] == State::kIn) result.topk.push_back(i);
    if (state[i] == State::kAlive) alive_sorted.push_back(i);
  }
  std::stable_sort(alive_sorted.begin(), alive_sorted.end(),
                   [&](ObjectId a, ObjectId b) {
                     return result.estimates[a] > result.estimates[b];
                   });
  for (ObjectId id : alive_sorted) {
    if (result.topk.size() >= k) break;
    result.topk.push_back(id);
  }
  if (result.resolved && out_count == n - k) {
    // Everything not OUT is in the top-k even if not individually marked.
    result.topk.clear();
    for (ObjectId i = 0; i < n; ++i) {
      if (state[i] != State::kOut) result.topk.push_back(i);
    }
  }
  std::stable_sort(result.topk.begin(), result.topk.end(),
                   [&](ObjectId a, ObjectId b) {
                     return result.estimates[a] > result.estimates[b];
                   });
  if (result.topk.size() > k) result.topk.resize(k);
  return result;
}

}  // namespace skypref
