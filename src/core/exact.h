#ifndef SKYPREF_CORE_EXACT_H_
#define SKYPREF_CORE_EXACT_H_

/// \file
/// Deterministic skyline-probability computation (Algorithm 1, "Det").
///
/// Evaluates the inclusion-exclusion expansion of Eq. 4,
///
///   sky(O) = 1 + sum_{k=1..n} (-1)^k sum_{|I|=k} Pr(E_I),
///   Pr(E_I) = prod_j prod_{v in V_I^j} Pr(v <= O.j)   (distinct values!)
///
/// using the paper's sharing-computation technique: Pr(E_I) is derived
/// from Pr(E_{I \ {i}}) by multiplying in only the value factors that Qi
/// newly contributes, an O(d) step. The paper materializes level k from
/// level k-1, which needs C(n, n/2) memory; walking subsets in DFS order
/// achieves the same O(d)-per-subset sharing with O(nd) memory, because
/// adding/removing one object from the running subset touches at most d
/// per-dimension value counters.
///
/// Two engines implement the same walk:
///
///  * FlatExactEngine (default) — the solve is preceded by flattening the
///    instance into a FlatInstance: the distinct (dim, value) factors
///    become a dense pair-id table with their Pr(v <= O.j) probabilities
///    precomputed, and each candidate carries a compact index list of the
///    pairs where it differs from the target (CSR layout). The DFS inner
///    loop is then pure array arithmetic — no model hash lookups, no
///    `q[j] == o[j]` branch, and multiplicity counters indexed by dense
///    pair id instead of per-dimension value-id vectors sized to the max
///    ValueId. Multiplication and accumulation order are IDENTICAL to the
///    lookup engine, so results are bit-identical.
///  * LookupExactEngine — the original direct-from-model walk, kept as
///    the in-tree reference for tests and the bench_hotpath ablation
///    (select with ExactOptions::engine = ExactOptions::Engine::kLookup).
///
/// Additional engineering on top of the paper:
///  * zero subtrees are pruned — once Pr(E_I) = 0, every superset of I
///    also has probability 0 and contributes nothing (toggle via
///    ExactOptions::prune_zero for the ablation bench);
///  * a work budget and wall-clock limit so benches can report "did not
///    finish" instead of hanging (the problem is #P-complete; Det is
///    exponential by design). Callers that fan one query out over several
///    solves (Det+ groups, batch all-objects) pass one precomputed shared
///    deadline so the total wall time honors the limit once, not once per
///    solve;
///  * cooperative cancellation: a CancelToken polled at the same bounded
///    cadence as the deadline (src/util/cancel.h), so a query can be
///    abandoned mid-DFS from another thread. A token cancelled before the
///    solve starts yields Status::Cancelled deterministically;
///  * a deterministic failpoint in the visit-charging path ("exact.dfs",
///    src/util/failpoint.h, compiled out unless SKYPREF_FAILPOINTS) so
///    tests can force the ResourceExhausted degradation path on the N-th
///    visit of either engine.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/oracles.h"
#include "src/model/dataset.h"
#include "src/model/preference_model.h"
#include "src/model/types.h"
#include "src/util/cancel.h"
#include "src/util/failpoint.h"
#include "src/util/hash.h"
#include "src/util/status.h"
#include "src/util/try_alloc.h"

namespace skypref {

struct ExactOptions {
  /// Abort with ResourceExhausted after visiting this many subsets
  /// (0 = unlimited). Each visited subset costs O(d).
  std::uint64_t max_subsets = 0;

  /// Abort with ResourceExhausted after this much wall time
  /// (0 = unlimited). Checked every few thousand subsets.
  double time_limit_seconds = 0.0;

  /// A precomputed absolute deadline shared by several solves of one
  /// logical query; when set it takes precedence over
  /// time_limit_seconds. Multi-solve drivers (Det+ groups, the batch
  /// all-objects solver, the resilient ladder) set this once up front so
  /// the whole query — not each solve independently — observes the time
  /// limit.
  Deadline deadline;

  /// Optional cooperative cancellation; polled at the same bounded
  /// cadence as the deadline. Observing a cancelled token returns
  /// Status::Cancelled. Not owned; must outlive the solve. nullptr =
  /// not cancellable.
  const CancelToken* cancel = nullptr;

  /// Skip subtrees whose joint probability is exactly zero.
  bool prune_zero = true;

  /// Which DFS engine runs the walk; results are bit-identical.
  enum class Engine : std::uint8_t {
    kFlat,    ///< flattened pair-table hot path (default)
    kLookup,  ///< original per-dimension model-lookup walk (reference)
  };
  Engine engine = Engine::kFlat;
};

/// Statistics of one exact computation, for benches and tests.
struct ExactStats {
  std::uint64_t subsets_visited = 0;
  /// Group solves the Det+ engine choice sent to the lineage DP
  /// (src/core/lineage_dp.h), and the DP level entries they created.
  std::uint64_t lineage_groups = 0;
  std::uint64_t lineage_states = 0;

  void Add(const ExactStats& other) {
    subsets_visited += other.subsets_visited;
    lineage_groups += other.lineage_groups;
    lineage_states += other.lineage_states;
  }
};

/// Computes sky(target) exactly, considering only the dominators listed in
/// \p candidates (callers pass all other objects, or a preprocessed
/// subset). Object values listed in \p candidates must not equal target.
///
/// Numeric-generic: instantiate with DoubleOracle for speed or
/// RationalOracle for bit-exact results.
template <typename Oracle>
Result<typename Oracle::NumType> ExactSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const Oracle& oracle, const ExactOptions& options = {},
    ExactStats* stats = nullptr);

/// Convenience wrapper over all objects except \p target, double
/// precision, no preprocessing (the paper's plain "Det").
Result<double> ExactSkylineProbability(const Dataset& data, ObjectId target,
                                       const PreferenceModel& model,
                                       const ExactOptions& options = {},
                                       ExactStats* stats = nullptr);

// -------------------------------------------------------------------------
// Implementation
// -------------------------------------------------------------------------

namespace internal {

/// Resolves the effective deadline of one solve: an explicit shared
/// deadline wins, otherwise time_limit_seconds counts from now.
inline Deadline ResolveDeadline(const ExactOptions& options) {
  if (options.deadline.has_value()) return options.deadline;
  return Deadline::After(options.time_limit_seconds);
}

inline Status SubsetBudgetExhausted(std::uint64_t max_subsets) {
  return Status::ResourceExhausted(
      "exact solver exceeded subset budget of " + std::to_string(max_subsets));
}

inline Status TimeLimitExhausted() {
  return Status::ResourceExhausted("exact solver exceeded its time limit");
}

/// One exact instance, flattened for the DFS hot loop.
///
/// The distinct (dim, value) factors of Eq. 6 — the values where some
/// candidate differs from the target — are assigned dense pair ids in
/// first-encounter order (candidate-major, dimension-minor, exactly the
/// order the lookup engine discovers them). `pair_prob[p]` caches
/// Pr(v <= O.j) for pair p; candidate i owns the id slice
/// `pair_ids[offsets[i] .. offsets[i+1])`, listing its differing
/// dimensions in ascending dimension order. Because two candidates
/// sharing a (dim, value) map to the SAME pair id, a multiplicity counter
/// per pair id reproduces the "distinct values count once" semantics of
/// the per-dimension counters, and the per-candidate id order reproduces
/// the lookup engine's multiplication order bit for bit.
template <typename Oracle>
struct FlatInstance {
  using Num = typename Oracle::NumType;

  std::vector<Num> pair_prob;           ///< dense pair id -> Pr(v <= O.j)
  std::vector<std::uint32_t> pair_ids;  ///< concatenated candidate slices
  std::vector<std::uint32_t> offsets;   ///< size candidates+1; CSR offsets

  std::size_t candidate_count() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t pair_count() const { return pair_prob.size(); }

  std::span<const std::uint32_t> pairs_of(std::size_t candidate) const {
    return std::span<const std::uint32_t>(pair_ids.data() + offsets[candidate],
                                          offsets[candidate + 1] -
                                              offsets[candidate]);
  }
};

/// Flattens (data, target, candidates, oracle) into a FlatInstance. All
/// oracle lookups for the whole solve happen here, once per distinct
/// (dim, value) pair; the DFS afterwards touches only dense arrays.
template <typename Oracle>
FlatInstance<Oracle> BuildFlatInstance(const Dataset& data, ObjectId target,
                                       std::span<const ObjectId> candidates,
                                       const Oracle& oracle) {
  FlatInstance<Oracle> instance;
  std::unordered_map<std::pair<DimensionId, ValueId>, std::uint32_t, PairHash>
      pair_index;
  instance.offsets.reserve(candidates.size() + 1);
  instance.offsets.push_back(0);
  std::span<const ValueId> o = data.object(target);
  for (ObjectId id : candidates) {
    std::span<const ValueId> q = data.object(id);
    for (DimensionId j = 0; j < data.dimensions(); ++j) {
      if (q[j] == o[j]) continue;
      auto [it, inserted] = pair_index.try_emplace(
          {j, q[j]}, static_cast<std::uint32_t>(instance.pair_prob.size()));
      if (inserted) {
        instance.pair_prob.push_back(oracle.LessEq(j, q[j], o[j]));
      }
      instance.pair_ids.push_back(it->second);
    }
    instance.offsets.push_back(
        static_cast<std::uint32_t>(instance.pair_ids.size()));
  }
  return instance;
}

/// The flattened DFS engine: walks the inclusion-exclusion tree over a
/// prebuilt FlatInstance. The instance must outlive the engine.
template <typename Oracle>
class FlatExactEngine {
 public:
  using Num = typename Oracle::NumType;

  FlatExactEngine(const FlatInstance<Oracle>& instance,
                  const ExactOptions& options)
      : instance_(&instance),
        options_(options),
        deadline_(ResolveDeadline(options)) {
    counts_.assign(instance.pair_count(), 0);
  }

  Result<Num> Run(ExactStats* stats) {
    if (stats != nullptr) stats->subsets_visited = 0;
    // Solve-boundary cancel check: a token cancelled before the solve
    // starts is observed regardless of instance size (the in-loop poll
    // runs only every 4096 visits).
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      status_ = CancelledStatus();
      return status_;
    }
    status_ = Status::OK();
    accumulator_ = Accumulator<Num>();
    accumulator_.Add(Num(1));  // the k = 0 term of Eq. 4
    visited_ = 0;
    Dfs(0, Num(1), /*positive_sign=*/false);
    if (stats != nullptr) stats->subsets_visited = visited_;
    if (!status_.ok()) return status_;
    return accumulator_.Value();
  }

 private:
  // Extends the current subset with each candidate index >= next in turn.
  // `product` is Pr(E_I) for the current subset I; `positive_sign` is the
  // sign of the NEXT level's terms ((-1)^{|I|+1}).
  void Dfs(std::size_t next, const Num& product, bool positive_sign) {
    const std::size_t m = instance_->candidate_count();
    for (std::size_t i = next; i < m && status_.ok(); ++i) {
      if (!ChargeVisit()) return;
      Num extended = product;
      // Multiply in the factors of pairs the candidate newly contributes
      // (sharing computation: pairs already present in I count once).
      std::span<const std::uint32_t> pairs = instance_->pairs_of(i);
      for (std::uint32_t p : pairs) {
        if (counts_[p]++ == 0) {
          extended = extended * instance_->pair_prob[p];
        }
      }
      accumulator_.Add(positive_sign ? extended : -extended);
      if (!options_.prune_zero || !(extended == Num(0))) {
        Dfs(i + 1, extended, !positive_sign);
      }
      for (std::uint32_t p : pairs) --counts_[p];
    }
  }

  bool ChargeVisit() {
    ++visited_;
    // The failpoint consults on the solve's first visit plus the same
    // amortized cadence as the deadline poll below — a per-visit consult
    // would put an atomic RMW in the DFS hot loop and blow the
    // armed-but-quiet overhead budget (bench_hotpath chaos_armed_quiet).
    // Hit ordinals therefore count (solve entries + poll crossings), and
    // a kSingle n=1 arming still fails the first armed solve.
    if ((visited_ == 1 || (visited_ & 0xfff) == 0) &&
        SKYPREF_FAILPOINT("exact.dfs")) {
      status_ = Status::ResourceExhausted("failpoint exact.dfs");
      return false;
    }
    if (options_.max_subsets != 0 && visited_ > options_.max_subsets) {
      status_ = SubsetBudgetExhausted(options_.max_subsets);
      return false;
    }
    if ((visited_ & 0xfff) == 0) {
      if (options_.cancel != nullptr && options_.cancel->cancelled()) {
        status_ = CancelledStatus();
        return false;
      }
      if (deadline_.Expired()) {
        status_ = TimeLimitExhausted();
        return false;
      }
    }
    return true;
  }

  const FlatInstance<Oracle>* instance_;
  ExactOptions options_;
  Deadline deadline_;

  std::vector<std::uint32_t> counts_;  // pair id -> multiplicity in I
  Accumulator<Num> accumulator_;
  std::uint64_t visited_ = 0;
  Status status_;
};

/// The original engine: per-dimension value-id counters and on-the-fly
/// oracle lookups. Kept as the bit-exact reference the flattened path is
/// verified against (tests) and measured against (bench_hotpath).
template <typename Oracle>
class LookupExactEngine {
 public:
  using Num = typename Oracle::NumType;

  LookupExactEngine(const Dataset& data, ObjectId target,
                    std::span<const ObjectId> candidates, const Oracle& oracle,
                    const ExactOptions& options)
      : data_(data),
        target_(target),
        candidates_(candidates),
        oracle_(oracle),
        options_(options),
        deadline_(ResolveDeadline(options)) {
    // Per-dimension counters sized to the largest value id we will see.
    counts_.resize(data.dimensions());
    for (DimensionId j = 0; j < data.dimensions(); ++j) {
      ValueId bound = data.value(target, j) + 1;
      for (ObjectId id : candidates) {
        bound = std::max(bound, static_cast<ValueId>(data.value(id, j) + 1));
      }
      counts_[j].assign(bound, 0);
    }
  }

  Result<Num> Run(ExactStats* stats) {
    if (stats != nullptr) stats->subsets_visited = 0;
    // Solve-boundary cancel check: a token cancelled before the solve
    // starts is observed regardless of instance size (the in-loop poll
    // runs only every 4096 visits).
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      status_ = CancelledStatus();
      return status_;
    }
    status_ = Status::OK();
    accumulator_ = Accumulator<Num>();
    accumulator_.Add(Num(1));  // the k = 0 term of Eq. 4
    visited_ = 0;
    Dfs(0, Num(1), /*positive_sign=*/false);
    if (stats != nullptr) stats->subsets_visited = visited_;
    if (!status_.ok()) return status_;
    return accumulator_.Value();
  }

 private:
  void Dfs(std::size_t next, const Num& product, bool positive_sign) {
    for (std::size_t i = next; i < candidates_.size() && status_.ok(); ++i) {
      if (!ChargeVisit()) return;
      Num extended = product;
      std::span<const ValueId> q = data_.object(candidates_[i]);
      std::span<const ValueId> o = data_.object(target_);
      for (DimensionId j = 0; j < data_.dimensions(); ++j) {
        if (q[j] == o[j]) continue;
        if (counts_[j][q[j]]++ == 0) {
          extended = extended * oracle_.LessEq(j, q[j], o[j]);
        }
      }
      accumulator_.Add(positive_sign ? extended : -extended);
      if (!options_.prune_zero || !(extended == Num(0))) {
        Dfs(i + 1, extended, !positive_sign);
      }
      for (DimensionId j = 0; j < data_.dimensions(); ++j) {
        if (q[j] != o[j]) --counts_[j][q[j]];
      }
    }
  }

  bool ChargeVisit() {
    ++visited_;
    // The failpoint consults on the solve's first visit plus the same
    // amortized cadence as the deadline poll below — a per-visit consult
    // would put an atomic RMW in the DFS hot loop and blow the
    // armed-but-quiet overhead budget (bench_hotpath chaos_armed_quiet).
    // Hit ordinals therefore count (solve entries + poll crossings), and
    // a kSingle n=1 arming still fails the first armed solve.
    if ((visited_ == 1 || (visited_ & 0xfff) == 0) &&
        SKYPREF_FAILPOINT("exact.dfs")) {
      status_ = Status::ResourceExhausted("failpoint exact.dfs");
      return false;
    }
    if (options_.max_subsets != 0 && visited_ > options_.max_subsets) {
      status_ = SubsetBudgetExhausted(options_.max_subsets);
      return false;
    }
    if ((visited_ & 0xfff) == 0) {
      if (options_.cancel != nullptr && options_.cancel->cancelled()) {
        status_ = CancelledStatus();
        return false;
      }
      if (deadline_.Expired()) {
        status_ = TimeLimitExhausted();
        return false;
      }
    }
    return true;
  }

  const Dataset& data_;
  ObjectId target_;
  std::span<const ObjectId> candidates_;
  const Oracle& oracle_;
  ExactOptions options_;
  Deadline deadline_;

  std::vector<std::vector<std::uint32_t>> counts_;  // per dim: value -> count
  Accumulator<Num> accumulator_;
  std::uint64_t visited_ = 0;
  Status status_;
};

template <typename Oracle>
Status ValidateExactInputs(const Dataset& data, ObjectId target,
                           std::span<const ObjectId> candidates,
                           const Oracle& /*oracle*/) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object " + std::to_string(target) +
                              " out of range (n=" + std::to_string(data.size()) +
                              ")");
  }
  for (ObjectId id : candidates) {
    if (id >= data.size()) {
      return Status::OutOfRange("candidate object " + std::to_string(id) +
                                " out of range");
    }
    if (id == target) {
      return Status::InvalidArgument(
          "candidate list must not contain the target object");
    }
  }
  return Status::OK();
}

}  // namespace internal

template <typename Oracle>
Result<typename Oracle::NumType> ExactSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const Oracle& oracle, const ExactOptions& options, ExactStats* stats) {
  Status valid = internal::ValidateExactInputs(data, target, candidates,
                                               oracle);
  if (!valid.ok()) return valid;
  if (options.engine == ExactOptions::Engine::kLookup) {
    internal::LookupExactEngine<Oracle> engine(data, target, candidates,
                                               oracle, options);
    return engine.Run(stats);
  }
  // The flattened instance is the solve's one big allocation; through
  // TryAlloc its failure is ResourceExhausted, which degrades through
  // the resilient ladder like a blown budget instead of terminating.
  SKYPREF_ASSIGN_OR_RETURN(
      internal::FlatInstance<Oracle> instance,
      TryAlloc("alloc.exact.flat_instance", [&] {
        return internal::BuildFlatInstance(data, target, candidates, oracle);
      }));
  internal::FlatExactEngine<Oracle> engine(instance, options);
  return engine.Run(stats);
}

}  // namespace skypref

#endif  // SKYPREF_CORE_EXACT_H_
