#include "src/core/absorption.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "src/util/check.h"

namespace skypref {

bool Absorbs(const Dataset& data, ObjectId target, ObjectId absorber,
             ObjectId absorbed) {
  if (absorber == absorbed) return false;
  bool differs_somewhere = false;
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    if (data.value(absorber, j) == data.value(target, j)) continue;
    differs_somewhere = true;
    if (data.value(absorbed, j) != data.value(absorber, j)) return false;
  }
  return differs_somewhere;
}

template <typename ObjectOf>
ValuePostings::ValuePostings(const Dataset& data, std::size_t count,
                             ObjectOf object_of)
    : offsets_(data.dimensions()), positions_(data.dimensions()) {
  SKYPREF_CHECK(count < std::numeric_limits<std::uint32_t>::max());
  const std::size_t d = data.dimensions();
  // Counting sort per dimension, every pass walking the rows in order:
  // offsets[v + 1] counts value v, prefix sums turn the counts into list
  // starts, and a stable fill advances each start by one list (undone by
  // the final shift).
  std::vector<std::size_t> bound(d, 0);  // one past the largest value id
  for (std::size_t pos = 0; pos < count; ++pos) {
    const std::span<const ValueId> row = data.object(object_of(pos));
    for (std::size_t j = 0; j < d; ++j) {
      bound[j] = std::max(bound[j], std::size_t{row[j]} + 1);
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    offsets_[j].assign(bound[j] + 1, 0);
    positions_[j].resize(count);
  }
  for (std::size_t pos = 0; pos < count; ++pos) {
    const std::span<const ValueId> row = data.object(object_of(pos));
    for (std::size_t j = 0; j < d; ++j) ++offsets_[j][std::size_t{row[j]} + 1];
  }
  for (std::vector<std::uint32_t>& offsets : offsets_) {
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  }
  for (std::size_t pos = 0; pos < count; ++pos) {
    const std::span<const ValueId> row = data.object(object_of(pos));
    for (std::size_t j = 0; j < d; ++j) {
      positions_[j][offsets_[j][row[j]]++] = static_cast<std::uint32_t>(pos);
    }
  }
  for (std::vector<std::uint32_t>& offsets : offsets_) {
    std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
    offsets[0] = 0;
  }
}

ValuePostings::ValuePostings(const Dataset& data)
    : ValuePostings(data, data.size(), [](std::size_t pos) { return pos; }) {}

ValuePostings::ValuePostings(const Dataset& data,
                             std::span<const ObjectId> objects)
    : ValuePostings(data, objects.size(),
                    [objects](std::size_t pos) { return objects[pos]; }) {}

namespace {

/// The filter pass behind both entry points. Position p of the sequence
/// indexed by \p postings is object object_of(p); \p removed arrives
/// sized to that sequence with the non-candidate positions (the target
/// itself) already set, and \p candidates counts the rest.
template <typename ObjectOf>
std::vector<ObjectId> Filter(const Dataset& data, ObjectId target,
                             const ValuePostings& postings,
                             ObjectOf object_of, std::vector<char>& removed,
                             std::size_t candidates,
                             const NullPairTest& null_test,
                             AbsorptionStats* stats) {
  const DimensionId d = static_cast<DimensionId>(data.dimensions());

  // Null-dominator prune: one test per distinct (dim, value), whose
  // whole posting list goes at once.
  std::size_t pruned = 0;
  if (null_test) {
    for (DimensionId j = 0; j < d; ++j) {
      const ValueId o = data.value(target, j);
      for (ValueId v = 0; v < postings.value_bound(j); ++v) {
        const std::span<const std::uint32_t> list = postings.list(j, v);
        if (list.empty() || v == o || !null_test(j, v, o)) continue;
        for (std::uint32_t pos : list) {
          if (removed[pos] == 0) {
            removed[pos] = 1;
            ++pruned;
          }
        }
      }
    }
  }

  // Absorption visits the survivors of the prune in ascending |Gamma|,
  // Gamma being the dimensions where a candidate differs from the target,
  // by a stable counting sort. Qi absorbing Qj forces Gamma(Qi) to be a
  // subset of Gamma(Qj), a proper one unless the two are duplicates (and
  // then the earlier position comes first in its bucket), so whatever
  // could absorb a candidate has been visited before it: every absorber
  // that is still present when its turn comes is a final survivor.
  std::vector<std::uint32_t> live;  // positions left by the prune, ascending
  for (std::size_t pos = 0; pos < removed.size(); ++pos) {
    if (removed[pos] == 0) live.push_back(static_cast<std::uint32_t>(pos));
  }
  const std::span<const ValueId> target_row = data.object(target);
  std::vector<std::uint32_t> bucket_start(std::size_t{d} + 2, 0);
  std::vector<DimensionId> gamma(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const std::span<const ValueId> row = data.object(object_of(live[i]));
    DimensionId differs = 0;
    for (DimensionId j = 0; j < d; ++j) {
      differs += row[j] != target_row[j] ? 1u : 0u;
    }
    gamma[i] = differs;
    ++bucket_start[differs + 1];
  }
  for (std::size_t k = 1; k < bucket_start.size(); ++k) {
    bucket_start[k] += bucket_start[k - 1];
  }
  std::vector<std::uint32_t> order(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    order[bucket_start[gamma[i]]++] = live[i];
  }

  std::vector<std::pair<DimensionId, ValueId>> absorber_gamma;  // (j, value)
  absorber_gamma.reserve(d);
  for (std::uint32_t pos : order) {
    if (removed[pos] != 0) continue;  // absorbed earlier in the walk
    const ObjectId absorber = object_of(pos);

    // Collect Gamma and pick its dimension with the shortest posting list
    // to drive the scan; the candidates on that list already match the
    // absorber there, so only the rest of Gamma is compared.
    absorber_gamma.clear();
    std::span<const std::uint32_t> scan;
    for (DimensionId j = 0; j < d; ++j) {
      const ValueId v = data.value(absorber, j);
      if (v == target_row[j]) continue;
      absorber_gamma.push_back({j, v});
      const std::span<const std::uint32_t> list = postings.list(j, v);
      if (absorber_gamma.size() == 1 || list.size() < scan.size()) {
        scan = list;
      }
    }
    if (absorber_gamma.empty()) {
      // The candidate duplicates the target on all dimensions; it cannot
      // strictly dominate and is dropped outright.
      removed[pos] = 1;
      continue;
    }

    for (std::uint32_t other : scan) {
      if (removed[other] != 0) continue;
      const ObjectId object = object_of(other);
      if (object == absorber) continue;  // nothing absorbs itself
      const std::span<const ValueId> row = data.object(object);
      if (std::all_of(absorber_gamma.begin(), absorber_gamma.end(),
                      [row](const std::pair<DimensionId, ValueId>& cell) {
                        return row[cell.first] == cell.second;
                      })) {
        removed[other] = 1;
      }
    }
  }

  std::vector<ObjectId> survivors;
  survivors.reserve(live.size());
  for (std::uint32_t pos : live) {
    if (removed[pos] == 0) survivors.push_back(object_of(pos));
  }
  if (stats != nullptr) {
    stats->input_candidates = candidates;
    stats->pruned = pruned;
    stats->absorbed = candidates - pruned - survivors.size();
  }
  return survivors;
}

}  // namespace

std::vector<ObjectId> FilterCandidates(const Dataset& data, ObjectId target,
                                       std::span<const ObjectId> candidates,
                                       const NullPairTest& null_test,
                                       AbsorptionStats* stats) {
  ValuePostings postings(data, candidates);
  std::vector<char> removed(candidates.size(), 0);
  return Filter(
      data, target, postings,
      [candidates](std::size_t pos) { return candidates[pos]; }, removed,
      candidates.size(), null_test, stats);
}

std::vector<ObjectId> FilterAllCandidatesIndexed(const Dataset& data,
                                                 ObjectId target,
                                                 const ValuePostings& postings,
                                                 const NullPairTest& null_test,
                                                 AbsorptionStats* stats) {
  // Over the whole dataset a position is its ObjectId, so ascending
  // position order is ascending candidate-list order.
  std::vector<char> removed(data.size(), 0);
  removed[target] = 1;  // the target is never its own candidate
  return Filter(
      data, target, postings, [](std::size_t pos) { return ObjectId{pos}; },
      removed, data.size() - 1, null_test, stats);
}

}  // namespace skypref
