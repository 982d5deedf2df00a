#ifndef SKYPREF_CORE_ABSORPTION_H_
#define SKYPREF_CORE_ABSORPTION_H_

/// \file
/// Candidate filtering ahead of partition: the null-dominator prune and
/// the "absorption" technique (Section 5, Theorem 3, Algorithm 3).
///
/// Null-dominator prune: candidate Q dominates target O only if
/// Q.j <= O.j on every dimension j where Q differs from O, so
/// Pr(Q dominates O) is a product over those dimensions. One factor
/// Pr(Q.j <= O.j) that is exactly zero makes Q a "null dominator" with
/// Pr(e_Q) = 0: it never dominates in any possible world, and dropping it
/// leaves sky(O) mathematically unchanged. The test runs once per
/// distinct (dimension, value) and marks that value's whole posting list,
/// never once per candidate.
///
/// Absorption: candidate Qj is absorbed by candidate Qi when Qj matches
/// Qi on every dimension where Qi differs from the target O. In any
/// possible world where Qj dominates O, Qi also dominates O (on the
/// differing dimensions Qi's values ARE Qj's values; elsewhere Qi equals
/// O), so the event "Qj dominates O" is contained in "Qi dominates O" and
/// Qj contributes nothing to sky(O) = Pr(no candidate dominates O).
/// Absorption is transitive (Corollary 1), so one pass in any order
/// leaves the same survivors: with no duplicate objects, Qi absorbing Qj
/// implies Gamma(Qi) is a proper subset of Gamma(Qj), where Gamma is the
/// set of dimensions on which a candidate differs from O. Absorption is
/// then a strict partial order and the survivors are its minimal
/// elements. The pass visits candidates in ascending |Gamma|, so every
/// absorber it visits is already a final survivor.
///
/// The prune runs first and the two commute: a null absorber passes its
/// zero factor on to everything it absorbs, so a null candidate only
/// absorbs null candidates and a non-null candidate is only absorbed by
/// non-null ones. Pruning before or after absorption therefore leaves
/// the same survivor list; pruning first just spares absorption the scan
/// over candidates that cannot matter.
///
/// Complexity: O(n d) to bucket the candidates by |Gamma| (a counting
/// sort), plus, for each survivor only, one scan of its shortest posting
/// list comparing the rest of its Gamma: O(n d + s L |Gamma|) for s
/// survivors and lists of length at most L. The posting lists are a CSR
/// array indexed by value id, so no lookup hashes. On Nursery (n =
/// 12,960, d = 8) about 19 survivors each scan one list. The degenerate
/// worst case (every candidate survives and shares one list) is still
/// O(n^2 d), like the paper's one-pass description.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/oracles.h"
#include "src/model/dataset.h"
#include "src/model/types.h"

namespace skypref {

struct AbsorptionStats {
  std::size_t input_candidates = 0;
  /// Null dominators dropped by the prune (0 without a NullPairTest).
  std::size_t pruned = 0;
  /// Candidates dropped by absorption, duplicates of the target included;
  /// disjoint from \ref pruned.
  std::size_t absorbed = 0;
};

/// The exact-zero test of the null-dominator prune: given a dimension, a
/// candidate value and the target's (different) value there, true iff
/// Pr(candidate value <= target value) is exactly zero in the numeric
/// type of the solve that consumes the survivors. An empty test prunes
/// nothing.
using NullPairTest =
    std::function<bool(DimensionId dim, ValueId candidate, ValueId target)>;

/// The NullPairTest of \p oracle (DoubleOracle or RationalOracle):
/// LessEq compared with an exact zero of the oracle's own NumType, so the
/// rational referee never prunes a positive probability that merely
/// rounds to 0.0 as a double.
template <typename Oracle>
NullPairTest NullPairTestOf(const Oracle& oracle) {
  return [oracle](DimensionId dim, ValueId candidate, ValueId target) {
    return oracle.LessEq(dim, candidate, target) ==
           typename Oracle::NumType(0);
  };
}

/// Posting lists of a sequence of objects: (dimension, value) -> the
/// positions in the sequence that use that value, ascending. Over a whole
/// dataset the positions are the ObjectIds; built once, it is shared by
/// every target of an all-objects query and by every per-target solve of
/// one SkylineSolver (the dominance-candidate adjacency that per-target
/// filtering otherwise rebuilds per call).
///
/// Stored as CSR, one offsets array and one positions array per
/// dimension, with the offsets indexed directly by ValueId and sized by
/// the largest value id listed (the same dense-id assumption as
/// Dataset::value_bound). One counting pass builds it; a lookup is two
/// array reads, with no hashing. Immutable after construction, so
/// concurrent lookups are safe.
class ValuePostings {
 public:
  /// Postings of every object of \p data; positions are ObjectIds.
  explicit ValuePostings(const Dataset& data);

  /// Postings of \p objects; positions index into \p objects.
  ValuePostings(const Dataset& data, std::span<const ObjectId> objects);

  /// One past the largest value id listed on \p dim (0 when none).
  ValueId value_bound(DimensionId dim) const {
    return static_cast<ValueId>(offsets_[dim].size() - 1);
  }

  /// Positions whose value on \p dim is \p value; empty when unused.
  std::span<const std::uint32_t> list(DimensionId dim, ValueId value) const {
    const std::vector<std::uint32_t>& offsets = offsets_[dim];
    if (value >= offsets.size() - 1) return {};
    return std::span<const std::uint32_t>(positions_[dim])
        .subspan(offsets[value], offsets[value + 1] - offsets[value]);
  }

 private:
  template <typename ObjectOf>
  ValuePostings(const Dataset& data, std::size_t count, ObjectOf object_of);

  std::vector<std::vector<std::uint32_t>> offsets_;    // per dim: bound + 1
  std::vector<std::vector<std::uint32_t>> positions_;  // per dim: count
};

/// Returns the candidates that can change sky(target), in their input
/// order: null dominators under \p null_test are dropped first, then
/// candidates equal to the target on every dimension (duplicates — they
/// can never strictly dominate), then absorbed candidates.
std::vector<ObjectId> FilterCandidates(const Dataset& data, ObjectId target,
                                       std::span<const ObjectId> candidates,
                                       const NullPairTest& null_test,
                                       AbsorptionStats* stats = nullptr);

/// FilterCandidates over ALL objects except \p target, driven by the
/// shared \p postings index instead of per-call posting lists. Returns
/// the identical survivor list (same absorber scan order and tie-breaks):
/// for every dimension where an absorber differs from the target, the
/// global posting list equals the candidate-local one because the
/// target's own value differs and is therefore never listed.
std::vector<ObjectId> FilterAllCandidatesIndexed(
    const Dataset& data, ObjectId target, const ValuePostings& postings,
    const NullPairTest& null_test, AbsorptionStats* stats = nullptr);

/// Model-free FilterCandidates: duplicates and absorption only.
inline std::vector<ObjectId> AbsorbCandidates(
    const Dataset& data, ObjectId target, std::span<const ObjectId> candidates,
    AbsorptionStats* stats = nullptr) {
  return FilterCandidates(data, target, candidates, NullPairTest(), stats);
}

/// Model-free FilterAllCandidatesIndexed: duplicates and absorption only.
inline std::vector<ObjectId> AbsorbAllCandidatesIndexed(
    const Dataset& data, ObjectId target, const ValuePostings& postings,
    AbsorptionStats* stats = nullptr) {
  return FilterAllCandidatesIndexed(data, target, postings, NullPairTest(),
                                    stats);
}

/// True iff \p absorbed is absorbed by \p absorber with respect to
/// \p target, i.e. they match on every dimension where the absorber
/// differs from the target (and the absorber does differ somewhere).
bool Absorbs(const Dataset& data, ObjectId target, ObjectId absorber,
             ObjectId absorbed);

}  // namespace skypref

#endif  // SKYPREF_CORE_ABSORPTION_H_
