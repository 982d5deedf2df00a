#include "src/model/dataset.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "src/util/hash.h"

namespace skypref {

Status Dataset::Append(std::span<const ValueId> values) {
  if (values.size() != dimensions_) {
    return Status::InvalidArgument(
        "object has " + std::to_string(values.size()) + " values, expected " +
        std::to_string(dimensions_));
  }
  cells_.insert(cells_.end(), values.begin(), values.end());
  ++rows_;
  return Status::OK();
}

ValueId Dataset::value_bound(DimensionId dim) const {
  ValueId bound = 0;
  for (std::size_t row = 0; row < rows_; ++row) {
    bound = std::max(bound, static_cast<ValueId>(value(row, dim) + 1));
  }
  return bound;
}

bool Dataset::SameObject(ObjectId a, ObjectId b) const {
  return std::equal(cells_.begin() + static_cast<std::ptrdiff_t>(a * dimensions_),
                    cells_.begin() + static_cast<std::ptrdiff_t>((a + 1) * dimensions_),
                    cells_.begin() + static_cast<std::ptrdiff_t>(b * dimensions_));
}

Status Dataset::Validate() const {
  if (dimensions_ == 0) {
    return Status::FailedPrecondition("dataset has zero dimensions");
  }
  if (rows_ == 0) {
    return Status::FailedPrecondition("dataset is empty");
  }
  // One flat open-addressing table of row indices (linear probing, at
  // most half full), so the scan allocates once instead of once per row.
  // Slots hold row + 1; 0 marks an empty slot.
  if (rows_ >= std::numeric_limits<std::uint32_t>::max()) {
    return Status::FailedPrecondition("dataset has more than 2^32 - 2 rows");
  }
  const std::size_t mask = std::bit_ceil(rows_ * 2) - 1;
  std::vector<std::uint32_t> slots(mask + 1, 0);
  for (ObjectId row = 0; row < rows_; ++row) {
    std::size_t slot = HashSpan(object(row)) & mask;
    for (; slots[slot] != 0; slot = (slot + 1) & mask) {
      if (SameObject(slots[slot] - 1, row)) {
        return Status::FailedPrecondition(
            "duplicate object at row " + std::to_string(row) +
            " (the model assumes no duplicate objects)");
      }
    }
    slots[slot] = static_cast<std::uint32_t>(row + 1);
  }
  return Status::OK();
}

}  // namespace skypref
