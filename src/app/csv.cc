#include "app/csv.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace histest {
namespace {

/// Splits a CSV line into fields (no quoting).
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

Result<CsvColumn> ParseCsvColumn(const std::string& text,
                                 const CsvColumnOptions& options) {
  if (options.domain > kMaxColumnDomain) {
    return Status::OutOfRange("domain " + std::to_string(options.domain) +
                              " exceeds the column domain cap " +
                              std::to_string(kMaxColumnDomain));
  }
  const size_t domain =
      options.domain != 0 ? options.domain : kMaxColumnDomain;
  CsvColumn column;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  bool skipped_header = !options.has_header;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (!skipped_header) {
      skipped_header = true;
      continue;
    }
    const std::vector<std::string> fields = SplitFields(line);
    if (options.column >= fields.size()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": only " +
          std::to_string(fields.size()) + " fields, need column " +
          std::to_string(options.column));
    }
    const std::string& field = fields[options.column];
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(field.c_str(), &end, 10);
    if (end == field.c_str() || *end != '\0' || v < 0 || errno == ERANGE) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": not a non-negative integer: '" +
                                     field + "'");
    }
    if (static_cast<size_t>(v) >= domain) {
      return Status::OutOfRange("line " + std::to_string(line_no) +
                                ": value " + std::to_string(v) +
                                " outside domain [0, " +
                                std::to_string(domain) + ")");
    }
    column.values.push_back(static_cast<size_t>(v));
  }
  if (column.values.empty()) {
    return Status::InvalidArgument("no data rows found");
  }
  column.domain = options.domain != 0
                      ? options.domain
                      : *std::max_element(column.values.begin(),
                                          column.values.end()) +
                            1;
  return column;
}

std::string WriteCsvColumn(const std::string& header,
                           const std::vector<size_t>& values) {
  std::ostringstream out;
  out << header << "\n";
  for (size_t v : values) out << v << "\n";
  return out.str();
}

}  // namespace histest
