#include "src/core/sam_internal.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/core/absorption.h"
#include "src/core/sam_parallel.h"
#include "src/util/check.h"
#include "src/util/hash.h"
#include "src/util/try_alloc.h"

namespace skypref {
namespace internal {

FlatSamInstance BuildFlatSamInstance(const Dataset& data, ObjectId target,
                                     std::span<const ObjectId> candidates,
                                     const PreferenceModel& model) {
  // Built serially before any block worker starts; the instance is then
  // read-only shared state across threads (const-shared, no mutex).
  const DimensionId d = static_cast<DimensionId>(data.dimensions());
  FlatSamInstance inst;
  std::unordered_map<std::pair<DimensionId, ValueId>, std::uint32_t, PairHash>
      pair_index;
  inst.offsets.reserve(candidates.size() + 1);
  inst.offsets.push_back(0);
  for (ObjectId id : candidates) {
    for (DimensionId j = 0; j < d; ++j) {
      ValueId v = data.value(id, j);
      ValueId o = data.value(target, j);
      if (v == o) continue;
      auto [it, inserted] = pair_index.try_emplace(
          {j, v}, static_cast<std::uint32_t>(inst.thresholds.size()));
      if (inserted) {
        double less_eq = model.LessEq(j, v, o);
        // Every threshold the sampler will ever compare against encodes a
        // model probability; catch a broken model before it skews
        // thousands of worlds.
        SKYPREF_DCHECK_PROB(less_eq);
        inst.thresholds.push_back(BernoulliThreshold(less_eq));
      }
      inst.pair_ids.push_back(it->second);
    }
    inst.offsets.push_back(static_cast<std::uint32_t>(inst.pair_ids.size()));
  }
  return inst;
}

namespace {

struct TernaryPairKey {
  DimensionId dim;
  ValueId lo;
  ValueId hi;
  bool operator==(const TernaryPairKey& o) const {
    return dim == o.dim && lo == o.lo && hi == o.hi;
  }
};

struct TernaryPairKeyHash {
  std::size_t operator()(const TernaryPairKey& k) const {
    std::size_t h = HashCombine(std::size_t{0x5a3ba7c4}, k.dim);
    h = HashCombine(h, k.lo);
    return HashCombine(h, k.hi);
  }
};

/// Phase B of BuildBatchPlan: one global table of ternary orientation
/// variables, interned by canonical (dim, lo, hi), shared by every
/// target's plan — the world-sharing that turns targets x worlds x pairs
/// draws into worlds x distinct-pairs. Serial: this interning IS the work
/// being deduplicated across targets.
BatchPlan InternPlan(const Dataset& data, const PreferenceModel& model,
                     const std::vector<TargetPlan>& plans,
                     BatchSamStats& stats) {
  const std::size_t n = data.size();
  const DimensionId d = static_cast<DimensionId>(data.dimensions());
  BatchPlan plan;
  std::unordered_map<TernaryPairKey, std::uint32_t, TernaryPairKeyHash>
      pair_index;
  plan.target_begin.reserve(n + 1);
  plan.target_begin.push_back(0);
  plan.req_offsets.push_back(0);
  struct PlanCandidate {
    double dominance = 1.0;
    std::vector<std::uint32_t> reqs;
  };
  std::vector<PlanCandidate> per_target;
  for (ObjectId t = 0; t < n; ++t) {
    per_target.clear();
    for (const auto& group : plans[t].groups) {
      for (ObjectId c : group) {
        PlanCandidate cand;
        bool possible = true;
        for (DimensionId j = 0; j < d && possible; ++j) {
          ValueId vc = data.value(c, j);
          ValueId vt = data.value(t, j);
          if (vc == vt) continue;
          ValueId lo = std::min(vc, vt);
          ValueId hi = std::max(vc, vt);
          PrefPair pair = model.GetPair(j, lo, hi);
          double toward_candidate = vc == lo ? pair.less : pair.greater;
          // Exact-zero test: Pr = 0 means the orientation can never be
          // drawn, so the candidate is pruned from the sampling plan.
          // With preprocessing Phase A's null-dominator prune already
          // dropped every such candidate; without it this is the prune.
          if (toward_candidate == 0.0) {  // skypref-lint: allow(float-eq)
            possible = false;
            break;
          }
          cand.dominance *= toward_candidate;
          auto [it, inserted] = pair_index.try_emplace(
              TernaryPairKey{j, lo, hi},
              static_cast<std::uint32_t>(plan.cut_lo.size()));
          if (inserted) {
            SKYPREF_DCHECK_PROB(pair.less);
            SKYPREF_DCHECK_PROB(pair.less + pair.greater);
            plan.cut_lo.push_back(BernoulliThreshold(pair.less));
            plan.cut_hi.push_back(BernoulliThreshold(
                std::min(pair.less + pair.greater, 1.0)));
          }
          cand.reqs.push_back((it->second << 1) |
                              (vc == hi ? 1u : 0u));
        }
        if (!possible) {
          ++stats.pruned_candidates;
          continue;
        }
        // A candidate with no differing dimension would duplicate the
        // target; Dataset::Validate guarantees that cannot happen.
        if (!cand.reqs.empty()) per_target.push_back(std::move(cand));
      }
    }
    // Algorithm 2 line 1 per target: most probable dominators first.
    std::stable_sort(per_target.begin(), per_target.end(),
                     [](const PlanCandidate& a, const PlanCandidate& b) {
                       return a.dominance > b.dominance;
                     });
    for (PlanCandidate& cand : per_target) {
      plan.reqs.insert(plan.reqs.end(), cand.reqs.begin(), cand.reqs.end());
      plan.req_offsets.push_back(static_cast<std::uint32_t>(plan.reqs.size()));
    }
    plan.target_begin.push_back(
        static_cast<std::uint32_t>(plan.req_offsets.size() - 1));
  }
  stats.distinct_pairs = plan.pair_count();
  return plan;
}

}  // namespace

Result<BatchPlan> BuildBatchPlan(const Dataset& data,
                                 const PreferenceModel& model,
                                 ThreadPool& pool, const SolverOptions& options,
                                 BatchSamStats& stats) {
  const std::size_t n = data.size();
  stats.targets = n;

  // Phase A: the null-dominator prune, absorption and partition per
  // target, exactly as in the batch exact solver. Both filters are pure
  // win for the sampler too — a null candidate never dominates, and an
  // absorbed candidate's dominance event is contained in its absorber's,
  // so dropping either changes no world's verdict.
  std::optional<ValuePostings> postings;
  std::vector<TargetPlan> plans = PlanBatchTargets(
      data, options.preprocess, NullPairTestOf(DoubleOracle(model)), pool,
      postings);
  for (ObjectId t = 0; t < n; ++t) {
    SKYPREF_RETURN_IF_ERROR(plans[t].status);
    stats.pruned_candidates += plans[t].pruned;
    stats.absorbed += plans[t].absorbed;
    stats.groups += plans[t].groups.size();
    for (const auto& group : plans[t].groups) {
      stats.largest_group = std::max(stats.largest_group, group.size());
    }
  }
  return TryAlloc("alloc.sam.batch_plan",
                  [&] { return InternPlan(data, model, plans, stats); });
}

}  // namespace internal
}  // namespace skypref
