#ifndef SKYPREF_MODEL_DATASET_H_
#define SKYPREF_MODEL_DATASET_H_

/// \file
/// A dataset of fixed-value categorical objects.
///
/// Objects have deterministic attribute values (the uncertainty lives in
/// the preferences, see PreferenceModel). The dataset stores an n x d
/// matrix of dimension-local ValueIds in row-major order.
///
/// The paper assumes no duplicate objects (Section 2, "Dominance
/// probability"); Validate() enforces this, and the solvers require it.

#include <span>
#include <vector>

#include "src/model/types.h"
#include "src/util/status.h"

namespace skypref {

class Dataset {
 public:
  /// An empty dataset over \p dimensions attributes (dimensions >= 1).
  explicit Dataset(std::size_t dimensions) : dimensions_(dimensions) {}

  std::size_t dimensions() const { return dimensions_; }
  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Appends an object. Fails if the value count differs from d.
  Status Append(std::span<const ValueId> values);
  Status Append(std::initializer_list<ValueId> values) {
    return Append(std::span<const ValueId>(values.begin(), values.size()));
  }

  /// The values of object \p object.
  std::span<const ValueId> object(ObjectId object) const {
    return std::span<const ValueId>(&cells_[object * dimensions_],
                                    dimensions_);
  }

  /// Value of \p object on \p dim.
  ValueId value(ObjectId object, DimensionId dim) const {
    return cells_[object * dimensions_ + dim];
  }

  /// Largest ValueId used on \p dim, plus one (0 for an empty dataset).
  /// Useful for sizing per-dimension tables.
  ValueId value_bound(DimensionId dim) const;

  /// Checks the paper's structural assumptions: at least one object and no
  /// two identical objects (the error names the later row of the first
  /// duplicate pair). O(n d) expected via one flat hash table of row
  /// indices; fails on more than 2^32 - 2 rows.
  Status Validate() const;

  /// True iff objects \p a and \p b have identical values everywhere.
  bool SameObject(ObjectId a, ObjectId b) const;

 private:
  std::size_t dimensions_;
  std::size_t rows_ = 0;
  std::vector<ValueId> cells_;  // row-major n x d
};

}  // namespace skypref

#endif  // SKYPREF_MODEL_DATASET_H_
