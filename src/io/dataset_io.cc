#include "src/io/dataset_io.h"

#include <vector>

#include "src/io/csv.h"
#include "src/util/strings.h"

namespace skypref {

Result<LoadedDataset> DatasetFromCsv(std::string_view document) {
  // Streamed record by record: the rows are interned as they are parsed
  // instead of materializing the whole document first.
  LoadedDataset loaded;
  std::size_t record = 0;
  std::vector<ValueId> row;
  SKYPREF_RETURN_IF_ERROR(ForEachCsvRecord(
      document, [&](const std::vector<std::string>& fields) -> Status {
        if (record++ == 0) {
          if (fields.empty()) {
            return Status::InvalidArgument("dataset CSV header is empty");
          }
          loaded.domain = Domain(fields);
          loaded.dataset = Dataset(fields.size());
          row.resize(fields.size());
          return Status::OK();
        }
        if (fields.size() != row.size()) {
          return Status::InvalidArgument(
              "dataset CSV row " + std::to_string(record - 1) + " has " +
              std::to_string(fields.size()) + " fields, expected " +
              std::to_string(row.size()));
        }
        for (DimensionId j = 0; j < row.size(); ++j) {
          SKYPREF_ASSIGN_OR_RETURN(row[j],
                                   loaded.domain.InternValue(j, fields[j]));
        }
        return loaded.dataset.Append(row);
      }));
  if (record == 0) {
    return Status::InvalidArgument("dataset CSV has no header row");
  }
  return loaded;
}

std::string DatasetToCsv(const Dataset& data, const Domain& domain) {
  std::string out;
  std::vector<std::string> fields;
  fields.reserve(data.dimensions());
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    fields.push_back(domain.dimension_name(j));
  }
  out += FormatCsvLine(fields);
  out.push_back('\n');
  for (ObjectId i = 0; i < data.size(); ++i) {
    fields.clear();
    for (DimensionId j = 0; j < data.dimensions(); ++j) {
      fields.push_back(domain.value_name(j, data.value(i, j)));
    }
    out += FormatCsvLine(fields);
    out.push_back('\n');
  }
  return out;
}

Result<LoadedDataset> LoadDatasetFile(const std::string& path) {
  SKYPREF_ASSIGN_OR_RETURN(std::string contents, ReadFile(path));
  return DatasetFromCsv(contents);
}

Status SaveDatasetFile(const std::string& path, const Dataset& data,
                       const Domain& domain) {
  return WriteFile(path, DatasetToCsv(data, domain));
}

namespace {
const char kPrefHeader[] = "dimension,value_a,value_b,prob_a_less,prob_b_less";
}  // namespace

Result<TablePreferenceModel> PreferencesFromCsv(std::string_view document,
                                                const Domain& domain) {
  SKYPREF_ASSIGN_OR_RETURN(auto records, ParseCsv(document));
  if (records.empty()) {
    return Status::InvalidArgument("preference CSV has no header row");
  }
  TablePreferenceModel model;
  for (std::size_t r = 1; r < records.size(); ++r) {
    const auto& record = records[r];
    if (record.size() != 5) {
      return Status::InvalidArgument("preference CSV row " +
                                     std::to_string(r) +
                                     " must have 5 fields");
    }
    DimensionId dim = 0;
    bool found = false;
    for (DimensionId j = 0; j < domain.dimensions(); ++j) {
      if (domain.dimension_name(j) == record[0]) {
        dim = j;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::NotFound("unknown dimension '" + record[0] +
                              "' in preference CSV row " + std::to_string(r));
    }
    SKYPREF_ASSIGN_OR_RETURN(ValueId a, domain.FindValue(dim, record[1]));
    SKYPREF_ASSIGN_OR_RETURN(ValueId b, domain.FindValue(dim, record[2]));
    SKYPREF_ASSIGN_OR_RETURN(double less, ParseDouble(record[3]));
    SKYPREF_ASSIGN_OR_RETURN(double greater, ParseDouble(record[4]));
    SKYPREF_RETURN_IF_ERROR(model.Set(dim, a, b, less, greater));
  }
  return model;
}

std::string PreferencesToCsv(const Dataset& data, const Domain& domain,
                             const PreferenceModel& model) {
  std::string out = kPrefHeader;
  out.push_back('\n');
  for (DimensionId j = 0; j < data.dimensions(); ++j) {
    ValueId bound = data.value_bound(j);
    for (ValueId a = 0; a < bound; ++a) {
      for (ValueId b = a + 1; b < bound; ++b) {
        PrefPair pair = model.GetPair(j, a, b);
        out += FormatCsvLine({domain.dimension_name(j),
                              domain.value_name(j, a), domain.value_name(j, b),
                              std::to_string(pair.less),
                              std::to_string(pair.greater)});
        out.push_back('\n');
      }
    }
  }
  return out;
}

}  // namespace skypref
