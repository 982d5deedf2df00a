#include "src/core/parallel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/core/absorption.h"
#include "src/core/exact.h"
#include "src/core/lineage_dp.h"
#include "src/core/partition.h"
#include "src/util/cancel.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/hash.h"

namespace skypref {

namespace {

/// Group indices sorted by size descending, ties in partition order, so
/// the dynamic ParallelFor dispatch starts the stragglers first.
std::vector<std::size_t> LongestFirstOrder(
    const std::vector<std::vector<ObjectId>>& groups) {
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&groups](std::size_t a, std::size_t b) {
                     return groups[a].size() > groups[b].size();
                   });
  return order;
}

}  // namespace

Result<double> ParallelExactSkylineProbability(
    const Dataset& data, ObjectId target, const PreferenceModel& model,
    ThreadPool& pool, const ExactOptions& options, SolveStats* stats) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
#if defined(SKYPREF_ENABLE_DCHECKS) && SKYPREF_ENABLE_DCHECKS
  SKYPREF_RETURN_IF_ERROR(model.Validate(data));
#endif
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  DoubleOracle oracle(model);
  SolveStats local;
  std::vector<std::vector<ObjectId>> groups = PlanTarget(
      data, target, /*preprocess=*/true, NullPairTestOf(oracle), &local);

  // ONE deadline for the whole query. Resolving time_limit_seconds per
  // group solve (the previous behavior) let the total wall time reach
  // groups x limit.
  ExactOptions opts = options;
  opts.deadline = internal::ResolveDeadline(options);

  const std::size_t group_count = groups.size();
  std::vector<double> survival(group_count, 1.0);
  std::vector<Status> statuses(group_count);
  std::vector<ExactStats> group_stats(group_count);
  const std::vector<std::size_t> order = LongestFirstOrder(groups);
  pool.ParallelFor(group_count, [&](std::size_t k) {
    const std::size_t g = order[k];
    auto result = internal::SolveExactGroup(
        data, target, std::span<const ObjectId>(groups[g]), oracle, opts,
        &group_stats[g]);
    if (result.ok()) {
      survival[g] = result.value();
    } else {
      statuses[g] = result.status();
    }
  });

  // Survival factors multiply in partition order (Theorem 4); the first
  // failing group's status wins, also in partition order.
  double product = 1.0;
  for (std::size_t g = 0; g < group_count; ++g) {
    SKYPREF_RETURN_IF_ERROR(statuses[g]);
    SKYPREF_DCHECK_PROB(survival[g]);
    product *= survival[g];
    local.Add(group_stats[g]);
  }
  if (stats != nullptr) *stats = local;
  SKYPREF_DCHECK_PROB(product);
  return ClampProbability(product);
}

namespace {

/// Packs one (dim, candidate value, target value) preference lookup into
/// a hashable key; ValueId is 32-bit, so both values fit one uint64.
using PairKey = std::pair<DimensionId, std::uint64_t>;
using PairProbCache = std::unordered_map<PairKey, double, PairHash>;

PairKey MakePairKey(DimensionId dim, ValueId a, ValueId b) {
  return {dim, (static_cast<std::uint64_t>(a) << 32) |
                   static_cast<std::uint64_t>(b)};
}

/// Oracle reading the shared precomputed probability table. Entries are
/// the exact doubles PreferenceModel::LessEq produced, so solves through
/// this oracle are bit-identical to uncached ones.
///
/// Concurrency contract: the cache is built serially in Phase B and is
/// immutable by the time worker threads read it through this oracle, so
/// it carries no mutex and no SKYPREF_GUARDED_BY — const-shared, not
/// lock-protected.
class CachedDoubleOracle {
 public:
  using NumType = double;

  explicit CachedDoubleOracle(const PairProbCache& cache) : cache_(&cache) {}

  double LessEq(DimensionId dim, ValueId a, ValueId b) const {
    auto it = cache_->find(MakePairKey(dim, a, b));
    SKYPREF_DCHECK(it != cache_->end());
    return it->second;
  }

 private:
  const PairProbCache* cache_;
};

/// Whether a failed target is worth one re-dispatch. Deterministic
/// failures are not: a blown subset or DP-state budget or an expired
/// deadline fails identically on retry (the messages below are the exact
/// engines' fixed strings, src/core/exact.h and src/core/lineage_dp.cc).
/// Everything else ResourceExhausted —
/// allocation failure, injected scheduler faults — is transient: the
/// memory pressure or fault window that killed the first dispatch has
/// typically passed by the time the batch drains.
bool TransientFailure(const Status& status) {
  if (status.code() != StatusCode::kResourceExhausted) return false;
  const std::string& message = status.message();
  return message.find("subset budget") == std::string::npos &&
         message.find("state budget") == std::string::npos &&
         message.find("time limit") == std::string::npos;
}

}  // namespace

Result<std::vector<double>> BatchExactSkylineProbabilities(
    const Dataset& data, const PreferenceModel& model, ThreadPool& pool,
    const SolverOptions& options, BatchExactStats* stats) {
  SKYPREF_RETURN_IF_ERROR(data.Validate());
  SKYPREF_RETURN_IF_ERROR(model.Validate(data));
  const std::size_t n = data.size();

  BatchExactStats local;
  local.targets = n;

  // ONE deadline for the whole batch (see ExactOptions::deadline).
  ExactOptions exact = options.exact;
  exact.deadline = internal::ResolveDeadline(exact);

  // Phase A: the shared Det+/Sam+ preprocessing per target (see
  // internal::PlanBatchTargets). A target whose plan allocation fails
  // keeps that status in plans[t] and is stamped NaN in Phase C — empty
  // groups cannot signal the failure because the filters legitimately
  // leave a target with no groups. The postings outlive Phase A so the
  // retry pass can rebuild a failed target's plan.
  DoubleOracle oracle(model);
  const NullPairTest null_test = NullPairTestOf(oracle);
  std::optional<ValuePostings> postings;
  std::vector<internal::TargetPlan> plans = internal::PlanBatchTargets(
      data, options.preprocess, null_test, pool, postings);
  std::vector<Status> statuses(n);
  for (ObjectId t = 0; t < n; ++t) {
    statuses[t] = plans[t].status;
    if (!plans[t].status.ok()) continue;  // no partition to account for
    local.pruned_candidates += plans[t].pruned;
    local.absorbed += plans[t].absorbed;
    local.groups += plans[t].groups.size();
    for (const auto& group : plans[t].groups) {
      local.largest_group = std::max(local.largest_group, group.size());
    }
  }

  // Phase B: every distinct Pr(q.j <= o.j) any target's pair table needs,
  // computed once. Serial — these model lookups ARE the work being
  // deduplicated across targets.
  PairProbCache cache;
  for (ObjectId t = 0; t < n; ++t) {
    std::span<const ValueId> o = data.object(t);
    for (const auto& group : plans[t].groups) {
      for (ObjectId id : group) {
        std::span<const ValueId> q = data.object(id);
        for (DimensionId j = 0; j < data.dimensions(); ++j) {
          if (q[j] == o[j]) continue;
          auto [it, inserted] =
              cache.try_emplace(MakePairKey(j, q[j], o[j]), 0.0);
          if (inserted) it->second = oracle.LessEq(j, q[j], o[j]);
        }
      }
    }
  }
  local.distinct_pair_probs = cache.size();

  // Phase C: per-target solves, largest-work-first so a heavy target
  // cannot serialize the tail. Work ~ sum over groups of 2^|group|; the
  // exponent cap just keeps the weights finite.
  std::vector<double> weight(n, 0.0);
  for (ObjectId t = 0; t < n; ++t) {
    for (const auto& group : plans[t].groups) {
      // Scheduling heuristic only — never part of a returned probability,
      // so plain summation is fine here.
      // skypref-analyze: allow(kahan-discipline)
      weight[t] += std::ldexp(
          1.0, static_cast<int>(std::min<std::size_t>(group.size(), 512)));
    }
  }
  std::vector<ObjectId> order(n);
  std::iota(order.begin(), order.end(), ObjectId{0});
  std::stable_sort(order.begin(), order.end(),
                   [&weight](ObjectId a, ObjectId b) {
                     return weight[a] > weight[b];
                   });

  CachedDoubleOracle cached(cache);
  std::vector<double> results(n, 1.0);
  std::vector<ExactStats> target_stats(n);
  pool.ParallelFor(n, [&](std::size_t k) {
    const ObjectId t = order[k];
    // The batch-scheduler failpoint and the cancel poll sit at the
    // per-target dispatch boundary: one target fails (or the whole
    // query stops) without touching any other target's solve.
    if (SKYPREF_FAILPOINT("batch.target")) {
      statuses[t] = Status::ResourceExhausted("failpoint batch.target");
      results[t] = std::numeric_limits<double>::quiet_NaN();
      return;
    }
    if (exact.cancel != nullptr && exact.cancel->cancelled()) {
      statuses[t] = CancelledStatus();
      results[t] = std::numeric_limits<double>::quiet_NaN();
      return;
    }
    if (!statuses[t].ok()) {
      // Phase A could not build this target's plan; its empty groups
      // would silently solve to probability 1.0.
      results[t] = std::numeric_limits<double>::quiet_NaN();
      return;
    }
    auto solved =
        internal::SolveExactGroups(data, t, plans[t].groups, cached, exact,
                                   options.preprocess, &target_stats[t]);
    if (solved.ok()) {
      results[t] = solved.value();
    } else {
      statuses[t] = solved.status();
      results[t] = std::numeric_limits<double>::quiet_NaN();
    }
  });

  // Retry salvage pass: each target that failed on a TRANSIENT fault
  // gets ONE serial re-dispatch against the remaining shared deadline
  // before being stamped NaN for good. Determinism contract:
  //  * retry order is ascending ObjectId — independent of the
  //    largest-work-first schedule and of thread count;
  //  * a salvaged target's value is bit-identical to its fault-free
  //    value (retries solve through the plain oracle, whose doubles are
  //    by construction the cache's entries — and a target whose Phase A
  //    failed has no entries in the cache at all);
  //  * targets that already succeeded are never touched.
  if (options.retry_failed_targets) {
    for (ObjectId t = 0; t < n; ++t) {
      if (statuses[t].ok() || !TransientFailure(statuses[t])) continue;
      if (exact.cancel != nullptr && exact.cancel->cancelled()) break;
      if (exact.deadline.has_value() && exact.deadline.Expired()) break;
      ++local.retried_targets;
      // The retry dispatch has its own failpoint so chaos schedules can
      // fail the salvage itself (a double fault must still stamp NaN
      // plus a well-formed Status, never a bogus value).
      if (SKYPREF_FAILPOINT("batch.retry")) {
        statuses[t] = Status::ResourceExhausted("failpoint batch.retry");
        continue;
      }
      if (!plans[t].status.ok()) {
        PartitionWorkspace workspace;
        plans[t] =
            internal::PlanBatchTarget(data, t, *postings, null_test, workspace);
        if (!plans[t].status.ok()) {
          statuses[t] = plans[t].status;
          continue;
        }
      }
      auto solved =
          internal::SolveExactGroups(data, t, plans[t].groups, oracle, exact,
                                     options.preprocess, &target_stats[t]);
      if (solved.ok()) {
        results[t] = solved.value();
        statuses[t] = Status::OK();
        ++local.salvaged_targets;
      } else {
        statuses[t] = solved.status();
      }
    }
  }

  // A failed target no longer aborts the batch: its slot carries NaN and
  // its Status lands in stats->target_status, while every target that
  // finished keeps its bit-identical value. Only cancellation — the
  // caller abandoning the query — fails the whole call.
  local.target_status = statuses;
  for (ObjectId t = 0; t < n; ++t) {
    if (statuses[t].code() == StatusCode::kCancelled) return statuses[t];
    if (!statuses[t].ok()) ++local.failed_targets;
    local.subsets_visited += target_stats[t].subsets_visited;
  }
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace skypref
