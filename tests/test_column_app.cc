#include <gtest/gtest.h>

#include "app/column_sketch.h"
#include "app/csv.h"
#include "app/selectivity.h"
#include "app/summary.h"
#include "common/rng.h"
#include "dist/distance.h"
#include "dist/generators.h"
#include "dist/sampler.h"

namespace histest {
namespace {

std::vector<size_t> SampleColumn(const Distribution& d, size_t rows,
                                 uint64_t seed) {
  AliasSampler sampler(d);
  Rng rng(seed);
  std::vector<size_t> values(rows);
  for (auto& v : values) v = sampler.Sample(rng);
  return values;
}

TEST(ColumnSketchTest, BuildValidates) {
  EXPECT_FALSE(ColumnSketch::Build({}, 4).ok());
  EXPECT_FALSE(ColumnSketch::Build({1, 5}, 4).ok());
  EXPECT_FALSE(ColumnSketch::Build({0}, 0).ok());
}

TEST(ColumnSketchTest, HostileCsvValuesFailWithStatus) {
  // CSV text -> parsed column -> sketch must end in a Status, never in a
  // saturated value or an allocation failure.
  const auto ingest = [](const std::string& csv) -> Status {
    auto column = ParseCsvColumn(csv);
    HISTEST_RETURN_IF_ERROR(column.status());
    return ColumnSketch::Build(column.value().values, column.value().domain)
        .status();
  };
  EXPECT_EQ(ingest("v\n99999999999999999999\n").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ingest("v\n9223372036854775807\n").code(),
            StatusCode::kOutOfRange);
  auto huge = ColumnSketch::Build({9223372036854775806ULL},
                                  size_t{9223372036854775807ULL});
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kOutOfRange);
}

TEST(ColumnSketchTest, FrequenciesAndDistribution) {
  auto sketch = ColumnSketch::Build({0, 0, 1, 3}, 4);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch.value().row_count(), 4);
  EXPECT_EQ(sketch.value().domain_size(), 4u);
  EXPECT_EQ(sketch.value().counts()[0], 2);
  EXPECT_DOUBLE_EQ(sketch.value().distribution()[0], 0.5);
  EXPECT_DOUBLE_EQ(sketch.value().distribution()[2], 0.0);
}

TEST(ColumnSketchTest, OracleSamplesRows) {
  auto sketch = ColumnSketch::Build({0, 0, 0, 1}, 2).value();
  auto oracle = sketch.MakeOracle(7);
  int zeros = 0;
  for (int i = 0; i < 20000; ++i) zeros += oracle->Draw() == 0 ? 1 : 0;
  EXPECT_NEAR(zeros / 20000.0, 0.75, 0.02);
}

TEST(SelectivityTest, EstimateMatchesHistogramMass) {
  const auto hist = MakeStaircase(100, 4).value();
  SelectivityEstimator estimator(hist);
  EXPECT_NEAR(estimator.Estimate({0, 100}), 1.0, 1e-9);
  EXPECT_NEAR(estimator.Estimate({0, 25}),
              hist.MassOf(Interval{0, 25}), 1e-12);
  EXPECT_DOUBLE_EQ(estimator.Estimate({10, 10}), 0.0);
}

TEST(SelectivityTest, TrueSelectivityAndError) {
  const auto truth = MakeZipf(100, 1.0).value();
  SelectivityEstimator estimator(PiecewiseConstant::Flat(100, 0.01));
  EXPECT_NEAR(SelectivityEstimator::TrueSelectivity(truth, {0, 100}), 1.0,
              1e-9);
  const double err = estimator.MaxAbsError(truth, MakeQueryGrid(100, 5));
  EXPECT_GT(err, 0.0);
  EXPECT_LE(err, 1.0);
}

TEST(SelectivityTest, QueryGridIsWellFormed) {
  const auto queries = MakeQueryGrid(256, 4);
  EXPECT_EQ(queries.size(), 12u);
  for (const auto& q : queries) {
    EXPECT_LT(q.lo, q.hi);
    EXPECT_LE(q.hi, 256u);
  }
}

TEST(SelectivityTest, AccurateHistogramGivesAccurateSelectivities) {
  // The selectivity error of a histogram summary is at most its L1 error.
  const auto truth_hist = MakeStaircase(256, 6).value();
  const auto truth = truth_hist.ToDistribution().value();
  SelectivityEstimator estimator(truth_hist);
  EXPECT_NEAR(estimator.MaxAbsError(truth, MakeQueryGrid(256, 8)), 0.0,
              1e-9);
}

TEST(SummaryTest, EndToEndPipelineFindsSmallK) {
  // Column drawn from a 4-step staircase over a 512-value domain.
  const auto truth = MakeStaircase(512, 4).value().ToDistribution().value();
  const auto values = SampleColumn(truth, 200000, 13);
  auto sketch = ColumnSketch::Build(values, 512);
  ASSERT_TRUE(sketch.ok());
  SummaryOptions options;
  options.eps = 0.25;
  options.select.repetitions = 3;
  auto summary = SummarizeColumn(sketch.value(), options, 17);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  // The pipeline should find a small k (the true distribution is a
  // 4-histogram; sampling noise may shift by a little) and learn a summary
  // close to the column distribution.
  EXPECT_LE(summary.value().k_star, 8u);
  EXPECT_GE(summary.value().k_star, 1u);
  const double tv = TotalVariation(
      summary.value().histogram.ToDistribution().value(),
      sketch.value().distribution());
  EXPECT_LT(tv, 0.2);
  EXPECT_GT(summary.value().samples_used, 0);
}

TEST(SummaryTest, ValidatesEps) {
  auto sketch = ColumnSketch::Build({0, 1, 2, 3}, 4).value();
  SummaryOptions bad;
  bad.eps = 0.0;
  EXPECT_FALSE(SummarizeColumn(sketch, bad, 3).ok());
}

}  // namespace
}  // namespace histest
