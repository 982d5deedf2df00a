#include "src/core/absorption.h"

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

ValuePostings::ValuePostings(const Dataset& data)
    : by_dim_(data.dimensions()) {
  for (ObjectId id = 0; id < data.size(); ++id) Add(data, id, id);
}

ValuePostings::ValuePostings(const Dataset& data,
                             std::span<const ObjectId> objects)
    : by_dim_(data.dimensions()) {
  for (std::size_t pos = 0; pos < objects.size(); ++pos) {
    Add(data, objects[pos], pos);
  }
}

void ValuePostings::Add(const Dataset& data, ObjectId object,
                        ObjectId position) {
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    const ValueId v = data.value(object, j);
    auto [it, inserted] = index_.try_emplace(
        {j, v}, static_cast<std::uint32_t>(by_dim_[j].size()));
    if (inserted) by_dim_[j].push_back(Posting{v, {}});
    by_dim_[j][it->second].positions.push_back(position);
  }
}

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
      for (const ValuePostings::Posting& posting : postings.values(j)) {
        if (posting.value == o || !null_test(j, posting.value, o)) continue;
        for (ObjectId pos : posting.positions) {
          if (removed[pos] == 0) {
            removed[pos] = 1;
            ++pruned;
          }
        }
      }
    }
  }

  // Absorption, one pass in position order over the survivors.
  for (std::size_t pos = 0; pos < removed.size(); ++pos) {
    if (removed[pos] != 0) continue;  // dropped candidates never absorb
    const ObjectId absorber = object_of(pos);

    // Gamma = dimensions where the absorber differs from the target; pick
    // the dimension with the shortest posting list to drive the scan.
    DimensionId best_dim = d;
    std::size_t best_size = static_cast<std::size_t>(-1);
    for (DimensionId j = 0; j < d; ++j) {
      ValueId v = data.value(absorber, j);
      if (v == data.value(target, j)) continue;
      std::size_t size = postings.list(j, v).size();
      if (size < best_size) {
        best_size = size;
        best_dim = j;
      }
    }
    if (best_dim == d) {
      // The candidate duplicates the target on all dimensions; it cannot
      // strictly dominate and is dropped outright.
      removed[pos] = 1;
      continue;
    }

    for (ObjectId other :
         postings.list(best_dim, data.value(absorber, best_dim))) {
      if (other == pos || removed[other] != 0) continue;
      if (Absorbs(data, target, absorber, object_of(other))) {
        removed[other] = 1;
      }
    }
  }

  std::vector<ObjectId> survivors;
  survivors.reserve(candidates);
  for (std::size_t pos = 0; pos < removed.size(); ++pos) {
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
