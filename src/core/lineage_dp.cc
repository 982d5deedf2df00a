#include "src/core/lineage_dp.h"

#include <bit>
#include <limits>
#include <string>

#include "src/core/oracles.h"
#include "src/core/solver.h"
#include "src/util/failpoint.h"
#include "src/util/hash.h"

namespace skypref {

namespace internal {

LineageOrder OrderLineageVariables(std::span<const std::uint32_t> pair_ids,
                                   std::span<const std::uint32_t> offsets,
                                   std::size_t pair_count) {
  LineageOrder order;
  const std::size_t m = offsets.empty() ? 0 : offsets.size() - 1;
  std::vector<std::uint64_t> mask(pair_count, 0);
  std::vector<std::uint32_t> remaining(m, 0);
  std::uint64_t last_one = 0;  // undecided candidates with one pending
  for (std::size_t c = 0; c < m; ++c) {
    const std::uint64_t bit = std::uint64_t{1} << c;
    for (std::uint32_t k = offsets[c]; k < offsets[c + 1]; ++k) {
      mask[pair_ids[k]] |= bit;
    }
    remaining[c] = offsets[c + 1] - offsets[c];
    if (remaining[c] > 0) order.alive |= bit;
    if (remaining[c] == 1) last_one |= bit;
  }

  std::vector<std::uint32_t> pending(pair_count);
  for (std::uint32_t p = 0; p < pair_count; ++p) pending[p] = p;
  order.pairs.reserve(pair_count);
  order.masks.reserve(pair_count);
  std::uint64_t touched = 0;
  std::uint64_t decided = 0;
  constexpr std::uint64_t kSaturated = ~std::uint64_t{0};
  while (!pending.empty()) {
    // States at this index differ only in their open candidates.
    const int open_now = std::popcount(touched & ~decided);
    const std::uint64_t term =
        open_now >= 64 ? kSaturated : std::uint64_t{1} << open_now;
    order.state_bound = order.state_bound > kSaturated - term
                            ? kSaturated
                            : order.state_bound + term;

    std::size_t best = 0;
    int best_open = 65;
    int best_width = -1;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const std::uint64_t m_k = mask[pending[k]];
      const int open =
          std::popcount((touched | m_k) & ~(decided | (m_k & last_one)));
      const int width = std::popcount(m_k);
      if (open < best_open || (open == best_open && width > best_width)) {
        best = k;
        best_open = open;
        best_width = width;
      }
    }
    const std::uint32_t pair = pending[best];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
    const std::uint64_t chosen = mask[pair];
    order.pairs.push_back(pair);
    order.masks.push_back(chosen);
    touched |= chosen;
    for (std::uint64_t bits = chosen; bits != 0; bits &= bits - 1) {
      const auto c = static_cast<std::size_t>(std::countr_zero(bits));
      const std::uint64_t bit = std::uint64_t{1} << c;
      if (--remaining[c] == 0) {
        decided |= bit;
        last_one &= ~bit;
      } else if (remaining[c] == 1) {
        last_one |= bit;
      }
    }
  }
  return order;
}

namespace {

// States between two polls of the failpoint, cancel token and deadline.
constexpr std::uint64_t kPollInterval = 1024;

/// The memoized Shannon expansion over one LineageOrder. The memo is a
/// flat open-addressing table keyed on (alive set, variable index).
template <typename Num>
class LineageEngine {
 public:
  LineageEngine(const LineageOrder& order, std::span<const Num> pair_prob,
                const ExactOptions& options, const LineageDpOptions& dp)
      : masks_(order.masks),
        options_(options),
        dp_(dp),
        deadline_(ResolveDeadline(options)) {
    const std::size_t steps = order.pairs.size();
    prob_.reserve(steps);
    complement_.reserve(steps);
    for (std::uint32_t pair : order.pairs) {
      prob_.push_back(pair_prob[pair]);
      complement_.push_back(Num(1) - pair_prob[pair]);
    }
    // suffix_[i] = candidates with a requirement among steps i..end; an
    // alive candidate outside it is fully satisfied.
    suffix_.assign(steps + 1, 0);
    for (std::size_t i = steps; i-- > 0;) {
      suffix_[i] = suffix_[i + 1] | masks_[i];
    }
    slots_.resize(kInitialSlots);
  }

  Result<Num> Run(std::uint64_t initial_alive, LineageDpStats* stats) {
    status_ = Poll();
    Num survival(0);
    if (status_.ok()) survival = Solve(0, initial_alive);
    if (stats != nullptr) {
      stats->variables = masks_.size();
      stats->states = used_;
      stats->memo_hits = memo_hits_;
    }
    if (!status_.ok()) return status_;
    return survival;
  }

 private:
  struct Slot {
    std::uint64_t alive = 0;
    std::uint32_t index = kEmpty;
    Num value{};
  };
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kInitialSlots = 256;

  Num Solve(std::uint32_t index, std::uint64_t alive) {
    // Some alive candidate has no pending requirement: fully satisfied,
    // O is dominated on every world of this branch.
    if ((alive & ~suffix_[index]) != 0) return Num(0);
    // Nobody can dominate anymore; the remaining variables integrate to 1.
    if (alive == 0) return Num(1);
    // Variables no alive candidate requires integrate to 1 as well. Some
    // later one touches an alive candidate, since alive is in suffix_.
    while ((masks_[index] & alive) == 0) ++index;

    const Slot& slot = slots_[Probe(alive, index)];
    if (slot.index == index) {
      ++memo_hits_;
      return slot.value;
    }
    if (!ChargeState()) return Num(0);

    const Num& p = prob_[index];
    Num value(0);
    if (Num(0) < p) value = p * Solve(index + 1, alive);
    if (p < Num(1)) {
      value = value +
              complement_[index] * Solve(index + 1, alive & ~masks_[index]);
    }
    if (!status_.ok()) return Num(0);
    Insert(alive, index, value);
    return value;
  }

  // The slot holding (alive, index), or the empty slot ending its probe.
  std::size_t Probe(std::uint64_t alive, std::uint32_t index) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
                        HashMix(alive ^ (std::uint64_t{index} *
                                         0x9e3779b97f4a7c15ULL))) &
                    mask;
    while (slots_[i].index != kEmpty &&
           (slots_[i].index != index || slots_[i].alive != alive)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Insert(std::uint64_t alive, std::uint32_t index, const Num& value) {
    if (2 * (used_ + 1) > slots_.size()) Grow();
    Slot& slot = slots_[Probe(alive, index)];
    slot.alive = alive;
    slot.index = index;
    slot.value = value;
    ++used_;
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (Slot& slot : old) {
      if (slot.index == kEmpty) continue;
      slots_[Probe(slot.alive, slot.index)] = std::move(slot);
    }
  }

  // Charges one memoized state against the budgets; polls the failpoint,
  // the cancel token and the deadline every kPollInterval states.
  bool ChargeState() {
    ++charged_;
    if (charged_ % kPollInterval == 0) status_ = Poll();
    if (status_.ok() && dp_.max_states != 0 && charged_ > dp_.max_states) {
      status_ = Status::ResourceExhausted(
          "lineage DP exceeded state budget of " +
          std::to_string(dp_.max_states));
    }
    if (status_.ok() && options_.max_subsets != 0 &&
        charged_ > options_.max_subsets) {
      status_ = SubsetBudgetExhausted(options_.max_subsets);
    }
    return status_.ok();
  }

  Status Poll() const {
    if (SKYPREF_FAILPOINT("lineage.state")) {
      return Status::ResourceExhausted("failpoint lineage.state");
    }
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return CancelledStatus();
    }
    if (deadline_.Expired()) return TimeLimitExhausted();
    return Status::OK();
  }

  const std::vector<std::uint64_t>& masks_;
  std::vector<Num> prob_;        // Pr(variable true) per step
  std::vector<Num> complement_;  // 1 - prob_
  std::vector<std::uint64_t> suffix_;
  const ExactOptions& options_;
  const LineageDpOptions& dp_;
  Deadline deadline_;

  std::vector<Slot> slots_;  // size is a power of two, at most half full
  std::uint64_t used_ = 0;
  std::uint64_t charged_ = 0;
  std::uint64_t memo_hits_ = 0;
  Status status_;
};

}  // namespace

template <typename Num>
Result<Num> SolveLineage(const LineageOrder& order,
                         std::span<const Num> pair_prob,
                         const ExactOptions& options,
                         const LineageDpOptions& dp, LineageDpStats* stats) {
  LineageEngine<Num> engine(order, pair_prob, options, dp);
  return engine.Run(order.alive, stats);
}

template Result<double> SolveLineage<double>(const LineageOrder&,
                                             std::span<const double>,
                                             const ExactOptions&,
                                             const LineageDpOptions&,
                                             LineageDpStats*);
template Result<Rational> SolveLineage<Rational>(const LineageOrder&,
                                                 std::span<const Rational>,
                                                 const ExactOptions&,
                                                 const LineageDpOptions&,
                                                 LineageDpStats*);

}  // namespace internal

Result<double> LineageExactSkylineProbability(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    const PreferenceModel& model, const LineageDpOptions& options,
    LineageDpStats* stats) {
  return LineageExactSkylineProbability(data, target, candidates,
                                        DoubleOracle(model), ExactOptions{},
                                        options, stats);
}

Result<double> LineageExactWithPreprocessing(const Dataset& data,
                                             ObjectId target,
                                             const PreferenceModel& model,
                                             const LineageDpOptions& options,
                                             LineageDpStats* stats) {
  if (target >= data.size()) {
    return Status::OutOfRange("target object out of range");
  }
  DoubleOracle oracle(model);
  double product = 1.0;
  LineageDpStats combined;
  for (const auto& group : PlanTarget(data, target, /*preprocess=*/true,
                                      NullPairTestOf(oracle))) {
    LineageDpStats group_stats;
    SKYPREF_ASSIGN_OR_RETURN(
        double survival,
        internal::SolveExactGroup(data, target, group, oracle, ExactOptions{},
                                  nullptr, options, &group_stats));
    product *= survival;
    combined.variables += group_stats.variables;
    combined.states += group_stats.states;
    combined.memo_hits += group_stats.memo_hits;
  }
  if (stats != nullptr) *stats = combined;
  return product;
}

}  // namespace skypref
