#ifndef SKYPREF_IO_CSV_H_
#define SKYPREF_IO_CSV_H_

/// \file
/// Minimal RFC-4180-style CSV reading and writing: comma separation,
/// double-quote quoting with "" escapes, and tolerance for \r\n line
/// endings. Enough for datasets and preference tables; not a general
/// spreadsheet importer.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace skypref {

/// Parses one CSV record (no trailing newline). Fails on unterminated
/// quotes or stray characters after a closing quote.
Result<std::vector<std::string>> ParseCsvLine(std::string_view line);

/// ParseCsvLine into \p fields, reusing the storage of the strings already
/// there; \p fields is resized to the record's field count.
Status ParseCsvLine(std::string_view line, std::vector<std::string>& fields);

/// Calls \p visit with the fields of every non-blank line of \p document,
/// in order, and stops at the first parse error or non-OK visit. One
/// field vector is reused across lines, so a document with records of
/// one width costs no allocation per record. Quoted fields must not span
/// lines in this implementation.
Status ForEachCsvRecord(
    std::string_view document,
    const std::function<Status(const std::vector<std::string>&)>& visit);

/// Parses a whole CSV document into records, skipping blank lines.
/// Quoted fields must not span lines in this implementation.
Result<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view document);

/// Serializes one record, quoting fields that need it.
std::string FormatCsvLine(const std::vector<std::string>& fields);

/// Reads an entire file into a string.
Result<std::string> ReadFile(const std::string& path);

/// Writes a string to a file (truncating).
Status WriteFile(const std::string& path, std::string_view contents);

}  // namespace skypref

#endif  // SKYPREF_IO_CSV_H_
