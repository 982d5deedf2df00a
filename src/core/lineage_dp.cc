#include "src/core/lineage_dp.h"

#include <algorithm>
#include <bit>
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

// Entries between two polls of the failpoint, cancel token and deadline.
constexpr std::uint64_t kPollInterval = 1024;

/// The forward level sweep (see the file comment). Successors merge
/// through one open-addressing index of next-level positions, cleared
/// per level through the list of slots it used.
template <typename Num>
class LineageEngine {
 public:
  LineageEngine(const ExactOptions& options, const LineageDpOptions& dp)
      : options_(options),
        dp_(dp),
        deadline_(ResolveDeadline(options)),
        slots_(256, kEmpty) {}

  Result<Num> Run(const LineageOrder& order, std::span<const Num> pair_prob,
                  LineageDpStats* stats, std::vector<std::uint64_t>* levels) {
    const std::vector<std::uint64_t>& masks = order.masks;
    // suffix[i] = candidates with a requirement among steps i..end; an
    // alive candidate outside suffix[i + 1] is satisfied after step i.
    std::vector<std::uint64_t> suffix(masks.size() + 1, 0);
    for (std::size_t i = masks.size(); i-- > 0;) {
      suffix[i] = suffix[i + 1] | masks[i];
    }
    Num survival(order.alive == 0 ? 1 : 0);
    if (order.alive != 0) {
      alive_.push_back(order.alive);
      mass_.push_back(Num(1));
      charged_ = peak_ = 1;
    }
    status_ = Poll();
    for (std::size_t i = 0; i < masks.size() && !alive_.empty(); ++i) {
      if (levels != nullptr) levels->push_back(alive_.size());
      const Num& p = pair_prob[order.pairs[i]];
      const Num q = Num(1) - p;
      const bool keep = Num(0) < p;
      const bool kill = p < Num(1);
      for (std::size_t k = 0; k < alive_.size() && status_.ok(); ++k) {
        const std::uint64_t alive = alive_[k];
        const Num& mass = mass_[k];
        if ((alive & masks[i]) == 0) {  // the variable integrates to 1
          Emit(alive, mass);
          continue;
        }
        if (keep && (alive & ~suffix[i + 1]) == 0) Emit(alive, mass * p);
        const std::uint64_t rest = alive & ~masks[i];
        if (kill && rest != 0) Emit(rest, mass * q);
        // No one can dominate anymore. Masses add in entry order, so the
        // bits depend on the variable order alone (the contract shared by
        // every exact path). skypref-analyze: allow(kahan-discipline)
        if (kill && rest == 0) survival += mass * q;
      }
      if (!status_.ok()) break;
      for (std::uint32_t slot : used_) slots_[slot] = kEmpty;
      used_.clear();
      peak_ = std::max<std::uint64_t>(peak_, next_alive_.size());
      alive_.swap(next_alive_);
      mass_.swap(next_mass_);
      next_alive_.clear();
      next_mass_.clear();
    }
    if (stats != nullptr) *stats = {masks.size(), charged_, merges_, peak_};
    if (!status_.ok()) return status_;
    return survival;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  // The slot holding alive's next-level position, or the empty slot
  // ending its probe.
  std::size_t Probe(std::uint64_t alive) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(HashMix(alive)) & mask;
    while (slots_[slot] != kEmpty && next_alive_[slots_[slot]] != alive) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  // Adds mass to alive's next-level entry, creating (and charging) it on
  // first sight; grows the index past half full.
  void Emit(std::uint64_t alive, const Num& mass) {
    const std::size_t slot = Probe(alive);
    if (slots_[slot] != kEmpty) {
      ++merges_;
      next_mass_[slots_[slot]] += mass;
      return;
    }
    if (!Charge()) return;
    slots_[slot] = static_cast<std::uint32_t>(next_alive_.size());
    used_.push_back(static_cast<std::uint32_t>(slot));
    next_alive_.push_back(alive);
    next_mass_.push_back(mass);
    if (2 * next_alive_.size() <= slots_.size()) return;
    slots_.assign(2 * slots_.size(), kEmpty);
    used_.clear();
    for (std::uint32_t e = 0; e < next_alive_.size(); ++e) {
      used_.push_back(static_cast<std::uint32_t>(Probe(next_alive_[e])));
      slots_[used_.back()] = e;
    }
  }

  // Charges one new entry against the budgets; polls every
  // kPollInterval entries.
  bool Charge() {
    ++charged_;
    if (charged_ % kPollInterval == 0) status_ = Poll();
    if (status_.ok() && dp_.max_states != 0 &&
        next_alive_.size() >= dp_.max_states) {
      status_ = Status::ResourceExhausted(
          "lineage DP exceeded its level budget of " +
          std::to_string(dp_.max_states) + " entries");
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

  const ExactOptions& options_;
  const LineageDpOptions& dp_;
  Deadline deadline_;
  std::vector<std::uint64_t> alive_, next_alive_;  // the two live levels
  std::vector<Num> mass_, next_mass_;
  std::vector<std::uint32_t> slots_;  // power of two, at most half full
  std::vector<std::uint32_t> used_;   // slots_ set during this level
  std::uint64_t charged_ = 0;
  std::uint64_t merges_ = 0;
  std::uint64_t peak_ = 0;
  Status status_;
};

}  // namespace

template <typename Num>
Result<Num> SolveLineage(const LineageOrder& order,
                         std::span<const Num> pair_prob,
                         const ExactOptions& options,
                         const LineageDpOptions& dp, LineageDpStats* stats,
                         std::vector<std::uint64_t>* levels) {
  LineageEngine<Num> engine(options, dp);
  return engine.Run(order, pair_prob, stats, levels);
}

template Result<double> SolveLineage<double>(
    const LineageOrder&, std::span<const double>, const ExactOptions&,
    const LineageDpOptions&, LineageDpStats*, std::vector<std::uint64_t>*);
template Result<Rational> SolveLineage<Rational>(
    const LineageOrder&, std::span<const Rational>, const ExactOptions&,
    const LineageDpOptions&, LineageDpStats*, std::vector<std::uint64_t>*);

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
    combined.peak_level_entries = std::max(combined.peak_level_entries,
                                           group_stats.peak_level_entries);
  }
  if (stats != nullptr) *stats = combined;
  return product;
}

}  // namespace skypref
