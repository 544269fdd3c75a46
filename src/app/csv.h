#ifndef HISTEST_APP_CSV_H_
#define HISTEST_APP_CSV_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace histest {

/// Largest column domain the app layer accepts. Every domain element gets
/// dense storage (counts, pmf, prefix masses), so a larger domain — for
/// instance one derived from a hostile value like 2^63 - 1 — is rejected
/// with OutOfRange before anything is allocated.
inline constexpr size_t kMaxColumnDomain = size_t{1} << 26;

/// Minimal CSV ingestion for the database examples: extracts one integer
/// column from CSV text. Lines are newline-separated; fields are
/// comma-separated with no quoting (values are non-negative integers).
struct CsvColumnOptions {
  /// 0-based column index to extract.
  size_t column = 0;
  /// Skip the first line (header).
  bool has_header = true;
  /// Values must be < domain (0 = derive domain as max value + 1). At most
  /// kMaxColumnDomain either way.
  size_t domain = 0;
};

struct CsvColumn {
  std::vector<size_t> values;
  size_t domain = 0;
};

/// Parses `text` and extracts the configured column. Fails on missing
/// columns, non-integer or out-of-range fields, or values outside the
/// configured domain or kMaxColumnDomain.
Result<CsvColumn> ParseCsvColumn(const std::string& text,
                                 const CsvColumnOptions& options = {});

/// Renders a single-column CSV (with header) from values — the inverse,
/// used by examples to fabricate input files.
std::string WriteCsvColumn(const std::string& header,
                           const std::vector<size_t>& values);

}  // namespace histest

#endif  // HISTEST_APP_CSV_H_
