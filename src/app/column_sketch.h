#ifndef HISTEST_APP_COLUMN_SKETCH_H_
#define HISTEST_APP_COLUMN_SKETCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "dist/distribution.h"
#include "dist/empirical.h"
#include "testing/tester.h"

namespace histest {

/// Database-flavored entry point: wraps an integer column (values in
/// [0, domain)) as the frequency distribution the paper's testers and
/// learners operate on. This is the "dataset whose underlying distribution
/// we test" from the introduction's motivating use case.
class ColumnSketch {
 public:
  /// Builds from raw column values; every value must be < domain, and
  /// domain must be at most kMaxColumnDomain (app/csv.h).
  static Result<ColumnSketch> Build(const std::vector<size_t>& values,
                                    size_t domain);

  size_t domain_size() const { return counts_.size(); }
  int64_t row_count() const { return counts_.total(); }

  /// Exact per-value frequencies.
  const CountVector& counts() const { return counts_; }

  /// The column's value distribution (row frequencies normalized).
  const Distribution& distribution() const { return dist_; }

  /// An iid row-sampling oracle over the column — the access model of the
  /// paper (uniform random records of the dataset).
  std::unique_ptr<SampleOracle> MakeOracle(uint64_t seed) const;

 private:
  ColumnSketch(CountVector counts, Distribution dist)
      : counts_(std::move(counts)), dist_(std::move(dist)) {}

  CountVector counts_;
  Distribution dist_;
};

}  // namespace histest

#endif  // HISTEST_APP_COLUMN_SKETCH_H_
