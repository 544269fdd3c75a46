#include "app/column_sketch.h"

#include "app/csv.h"
#include "common/check.h"
#include "testing/oracle.h"

namespace histest {

Result<ColumnSketch> ColumnSketch::Build(const std::vector<size_t>& values,
                                         size_t domain) {
  if (domain == 0) return Status::InvalidArgument("domain must be positive");
  if (domain > kMaxColumnDomain) {
    return Status::OutOfRange("domain " + std::to_string(domain) +
                              " exceeds the column domain cap " +
                              std::to_string(kMaxColumnDomain));
  }
  if (values.empty()) {
    return Status::InvalidArgument("column must be non-empty");
  }
  for (size_t v : values) {
    if (v >= domain) {
      return Status::OutOfRange("column value " + std::to_string(v) +
                                " outside domain [0, " +
                                std::to_string(domain) + ")");
    }
  }
  CountVector counts = CountVector::FromSamples(domain, values);
  auto dist = counts.ToEmpirical();
  HISTEST_RETURN_IF_ERROR(dist.status());
  return ColumnSketch(std::move(counts), std::move(dist).value());
}

std::unique_ptr<SampleOracle> ColumnSketch::MakeOracle(uint64_t seed) const {
  return std::make_unique<DistributionOracle>(dist_, seed);
}

}  // namespace histest
