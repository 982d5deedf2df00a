#include "src/io/csv.h"

#include <fstream>
#include <sstream>

namespace skypref {

Status ParseCsvLine(std::string_view line, std::vector<std::string>& fields) {
  std::size_t count = 0;
  // The next field's string, cleared but keeping its capacity.
  auto next_field = [&fields, &count]() -> std::string& {
    if (count == fields.size()) fields.emplace_back();
    std::string& field = fields[count++];
    field.clear();
    return field;
  };
  std::string* current = &next_field();
  bool in_quotes = false;
  std::size_t i = 0;
  bool field_was_quoted = false;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current->push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current->push_back(c);
      ++i;
      continue;
    }
    if (c == '"') {
      if (!current->empty()) {
        return Status::InvalidArgument(
            "quote in the middle of an unquoted CSV field: " +
            std::string(line));
      }
      in_quotes = true;
      field_was_quoted = true;
      ++i;
      continue;
    }
    if (c == ',') {
      current = &next_field();
      field_was_quoted = false;
      ++i;
      continue;
    }
    if (field_was_quoted) {
      return Status::InvalidArgument(
          "characters after closing quote in CSV field: " + std::string(line));
    }
    current->push_back(c);
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quote in CSV line: " +
                                   std::string(line));
  }
  fields.resize(count);
  return Status::OK();
}

Result<std::vector<std::string>> ParseCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  SKYPREF_RETURN_IF_ERROR(ParseCsvLine(line, fields));
  return fields;
}

Status ForEachCsvRecord(
    std::string_view document,
    const std::function<Status(const std::vector<std::string>&)>& visit) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (start <= document.size()) {
    std::size_t end = document.find('\n', start);
    std::string_view line = end == std::string_view::npos
                                ? document.substr(start)
                                : document.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      SKYPREF_RETURN_IF_ERROR(ParseCsvLine(line, fields));
      SKYPREF_RETURN_IF_ERROR(visit(fields));
    }
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return Status::OK();
}

Result<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view document) {
  std::vector<std::vector<std::string>> records;
  SKYPREF_RETURN_IF_ERROR(ForEachCsvRecord(
      document, [&records](const std::vector<std::string>& fields) {
        records.push_back(fields);
        return Status::OK();
      }));
  return records;
}

std::string FormatCsvLine(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(',');
    const std::string& field = fields[i];
    bool needs_quotes = field.find_first_of(",\"\r\n") != std::string::npos;
    if (!needs_quotes) {
      out += field;
      continue;
    }
    out.push_back('"');
    for (char c : field) {
      if (c == '"') out.push_back('"');
      out.push_back(c);
    }
    out.push_back('"');
  }
  return out;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("read failure: " + path);
  return buffer.str();
}

Status WriteFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  if (!out) return Status::IOError("write failure: " + path);
  return Status::OK();
}

}  // namespace skypref
