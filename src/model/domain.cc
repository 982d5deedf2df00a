#include "src/model/domain.h"

namespace skypref {

Domain::Domain(std::size_t dimensions) {
  dims_.resize(dimensions);
  for (std::size_t i = 0; i < dimensions; ++i) {
    dims_[i].name = "dim" + std::to_string(i);
  }
}

Domain::Domain(std::vector<std::string> dimension_names) {
  dims_.resize(dimension_names.size());
  for (std::size_t i = 0; i < dimension_names.size(); ++i) {
    dims_[i].name = std::move(dimension_names[i]);
  }
}

Result<ValueId> Domain::InternValue(DimensionId dim,
                                    std::string_view value_name) {
  if (dim >= dims_.size()) {
    return Status::OutOfRange("dimension " + std::to_string(dim) +
                              " out of range (d=" +
                              std::to_string(dims_.size()) + ")");
  }
  Dimension& d = dims_[dim];
  auto it = d.ids.find(value_name);
  if (it != d.ids.end()) return it->second;
  ValueId id = static_cast<ValueId>(d.names.size());
  d.names.emplace_back(value_name);
  d.ids.emplace(std::string(value_name), id);
  return id;
}

Result<ValueId> Domain::FindValue(DimensionId dim,
                                  std::string_view value_name) const {
  if (dim >= dims_.size()) {
    return Status::OutOfRange("dimension " + std::to_string(dim) +
                              " out of range");
  }
  const Dimension& d = dims_[dim];
  auto it = d.ids.find(value_name);
  if (it == d.ids.end()) {
    return Status::NotFound("value '" + std::string(value_name) +
                            "' not interned on dimension " +
                            std::to_string(dim));
  }
  return it->second;
}

}  // namespace skypref
