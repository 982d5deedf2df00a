#ifndef SKYPREF_MODEL_DOMAIN_H_
#define SKYPREF_MODEL_DOMAIN_H_

/// \file
/// String interning for categorical attribute values.
///
/// The algorithms work on dense per-dimension ValueIds; Domain maps those
/// ids to and from human-readable names so datasets can be loaded from and
/// written to CSV, and so examples can speak in domain terms ("beach_view",
/// "fireplace") instead of integers.

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/model/types.h"
#include "src/util/status.h"

namespace skypref {

class Domain {
 public:
  /// Creates a domain with \p dimensions unnamed dimensions.
  explicit Domain(std::size_t dimensions);

  /// Creates a domain with named dimensions.
  explicit Domain(std::vector<std::string> dimension_names);

  std::size_t dimensions() const { return dims_.size(); }

  /// Name of dimension \p dim ("dim<k>" when unnamed).
  const std::string& dimension_name(DimensionId dim) const {
    return dims_[dim].name;
  }

  /// Interns \p value_name on \p dim, returning its (possibly pre-existing)
  /// dense id. Fails if \p dim is out of range.
  Result<ValueId> InternValue(DimensionId dim, std::string_view value_name);

  /// Id of an already-interned name, or NotFound.
  Result<ValueId> FindValue(DimensionId dim, std::string_view value_name) const;

  /// Number of distinct values interned on \p dim.
  std::size_t value_count(DimensionId dim) const {
    return dims_[dim].names.size();
  }

  /// Name of value \p value on \p dim. Requires the id to be valid.
  const std::string& value_name(DimensionId dim, ValueId value) const {
    return dims_[dim].names[value];
  }

 private:
  // Hashes names and string views alike, so lookups by string_view
  // build no temporary std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  struct Dimension {
    std::string name;
    std::vector<std::string> names;  // id -> name
    std::unordered_map<std::string, ValueId, NameHash, std::equal_to<>>
        ids;  // name -> id
  };
  std::vector<Dimension> dims_;
};

}  // namespace skypref

#endif  // SKYPREF_MODEL_DOMAIN_H_
