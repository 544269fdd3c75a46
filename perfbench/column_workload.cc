// The column-summary workload, the paper's section 1.1 database use: the
// benchmark writes CSV text, the program parses it (ParseCsvColumn), builds
// a ColumnSketch, summarises it (SummarizeColumn: a doubling search for k*
// with 5-way majority votes of Algorithm 1, then LearnKHistogramFromOracle)
// and answers range-selectivity queries (SelectivityEstimator).
//
// One operation is one column summary plus its queries. A round summarises
// two columns, both exact 4-histograms with levels 1 and 9:
//   small  domain 4096, breakpoints near the quarters (jittered by --seed),
//          about 2 M rows;
//   large  domain 65536, breakpoints at the quarters, fixed, 655360 rows.
// The large column's summary is a known fault: the learner draws fewer
// samples than the domain has values and misses the 4-histogram by more
// than eps.
#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/column_sketch.h"
#include "app/csv.h"
#include "app/selectivity.h"
#include "app/summary.h"
#include "bench.h"
#include "dist/sampler.h"
#include "histogram/distance_to_hk.h"
#include "testing/oracle.h"

namespace perfbench {
namespace {

constexpr double kEps = 0.15;
constexpr size_t kPieces = 4;
constexpr size_t kQueries = 64;
/// The large column and its seeds never depend on --seed.
constexpr uint64_t kLargeColumnSeed = 0x6c617267u;

struct Column {
  std::string name;
  size_t n = 0;
  bool known_fault = false;
  uint64_t seed_base = 0;
  std::string csv;            // written by the benchmark, consumed by Setup
  std::vector<int64_t> tally; // the benchmark's own count of rows per value
  int64_t rows = 0;
  std::vector<Run> runs;      // the column's pmf as runs
  std::vector<histest::RangeQuery> queries;  // the last one is [0, n)
  std::vector<double> truth;  // prefix-sum selectivity of each query
  std::optional<histest::ColumnSketch> sketch;
  std::optional<histest::SelectivityEstimator> estimator;  // last summary
};

/// Writes a column that is an exact 4-histogram: value v appears
/// rows_per_unit * level(v) times, rows in shuffled order, as the second
/// field of a "row,value" CSV.
Column MakeColumn(std::string name, size_t n, bool jitter, int rows_per_unit,
                  uint64_t seed_base) {
  Column c;
  c.name = std::move(name);
  c.n = n;
  c.seed_base = seed_base;
  uint64_t s = MixSeed(seed_base, 1);
  std::vector<size_t> ends;
  for (size_t j = 1; j < kPieces; ++j) {
    size_t e = j * n / kPieces;
    if (jitter) {
      const size_t span = n / 256;
      e = e - span + SplitMix(s) % (2 * span + 1);
    }
    ends.push_back(e);
  }
  ends.push_back(n);
  const bool heavy_first = jitter && (SplitMix(s) & 1) != 0;
  c.tally.assign(n, 0);
  size_t begin = 0;
  for (size_t p = 0; p < kPieces; ++p) {
    const int level = ((p % 2 == 0) == heavy_first) ? 9 : 1;
    for (size_t v = begin; v < ends[p]; ++v) c.tally[v] = rows_per_unit * level;
    c.runs.push_back(Run{static_cast<double>(rows_per_unit * level),
                         static_cast<double>(ends[p] - begin)});
    begin = ends[p];
  }
  for (int64_t t : c.tally) c.rows += t;
  for (Run& r : c.runs) r.value /= static_cast<double>(c.rows);

  std::vector<uint32_t> values;
  values.reserve(static_cast<size_t>(c.rows));
  for (size_t v = 0; v < n; ++v) {
    values.insert(values.end(), static_cast<size_t>(c.tally[v]),
                  static_cast<uint32_t>(v));
  }
  for (size_t i = values.size() - 1; i > 0; --i) {
    std::swap(values[i], values[SplitMix(s) % (i + 1)]);
  }
  c.csv = "row,value\n";
  c.csv.reserve(values.size() * 14);
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    char* p = std::to_chars(buf, buf + sizeof(buf), i).ptr;
    *p++ = ',';
    p = std::to_chars(p, buf + sizeof(buf), values[i]).ptr;
    *p++ = '\n';
    c.csv.append(buf, p);
  }

  std::vector<int64_t> prefix(n + 1, 0);
  for (size_t v = 0; v < n; ++v) prefix[v + 1] = prefix[v] + c.tally[v];
  for (size_t q = 0; q < kQueries; ++q) {
    size_t lo = SplitMix(s) % n, hi = SplitMix(s) % n;
    if (lo > hi) std::swap(lo, hi);
    c.queries.push_back(histest::RangeQuery{lo, hi + 1});
  }
  c.queries.push_back(histest::RangeQuery{0, n});
  for (const histest::RangeQuery& q : c.queries) {
    c.truth.push_back(static_cast<double>(prefix[q.hi] - prefix[q.lo]) /
                      static_cast<double>(c.rows));
  }
  return c;
}

class ColumnWorkload : public Workload {
 public:
  ColumnWorkload(uint64_t seed, Fault fault) : fault_(fault) {
    columns_.push_back(MakeColumn("small", 4096, true, 100, MixSeed(seed, 3)));
    columns_.push_back(MakeColumn("large", 65536, false, 2, kLargeColumnSeed));
    columns_[1].known_fault = true;
    for (const Column& c : columns_) ops_.push_back(OpInfo{c.name, c.known_fault});
  }

  bool Setup() override {
    for (Column& c : columns_) {
      histest::CsvColumnOptions options;
      options.column = 1;
      options.domain = c.n;
      double t = NowSeconds();
      auto parsed = histest::ParseCsvColumn(c.csv, options);
      csv_parse_s_ += NowSeconds() - t;
      if (!parsed.ok()) {
        std::fprintf(stderr, "ParseCsvColumn(%s): %s\n", c.name.c_str(),
                     parsed.status().ToString().c_str());
        return false;
      }
      std::vector<size_t>& values = parsed.value().values;
      if (fault_ == Fault::kDropSketchRow && &c == &columns_[0]) {
        values.pop_back();
      }
      t = NowSeconds();
      auto sketch = histest::ColumnSketch::Build(values, c.n);
      sketch_build_s_ += NowSeconds() - t;
      if (!sketch.ok()) {
        std::fprintf(stderr, "ColumnSketch::Build(%s): %s\n", c.name.c_str(),
                     sketch.status().ToString().c_str());
        return false;
      }
      c.sketch.emplace(std::move(sketch).value());
      csv_bytes_ += static_cast<double>(c.csv.size());
    }
    return true;
  }

  void CheckInputs(Checks& checks) override {
    for (Column& c : columns_) {
      std::string().swap(c.csv);
      const histest::CountVector& counts = c.sketch->counts();
      size_t mismatches = 0;
      for (size_t v = 0; v < c.n; ++v) mismatches += counts[v] != c.tally[v];
      checks.Expect(mismatches == 0 && c.sketch->row_count() == c.rows,
                    c.name + ": ColumnSketch counts differ from the rows "
                             "written at " +
                        std::to_string(mismatches) + " values");
      // Far from H_3 by the benchmark's own fit, in H_4 by construction.
      const double own_tv3 = 0.5 * KPieceL1Fit(c.runs, kPieces - 1);
      checks.Expect(own_tv3 > kEps, c.name + ": own 3-piece fit " +
                                        std::to_string(own_tv3) +
                                        " does not exceed eps");
      const double t = NowSeconds();
      auto in_class = histest::DistanceToHk(c.sketch->distribution(), kPieces);
      auto below = histest::DistanceToHk(c.sketch->distribution(), kPieces - 1);
      distance_to_hk_s_ += NowSeconds() - t;
      if (!in_class.ok() || !below.ok()) {
        checks.Expect(false, c.name + ": DistanceToHk failed");
        continue;
      }
      std::fprintf(stderr,
                   "%s: rows %" PRId64 " own H_3 fit %.6g DistanceToHk H_3 "
                   "[%.6g, %.6g] H_4 upper %.3g\n",
                   c.name.c_str(), c.rows, own_tv3, below.value().lower,
                   below.value().upper, in_class.value().upper);
      checks.Expect(in_class.value().upper <= 1e-9,
                    c.name + ": DistanceToHk to H_4 exceeds 1e-9");
      checks.Expect(below.value().upper >= own_tv3,
                    c.name + ": DistanceToHk to H_3 upper bound is below the "
                             "benchmark's own fit");
    }
  }

  const std::vector<OpInfo>& Ops() const override { return ops_; }

  bool RunOp(size_t op, OpMode mode, OpOutcome* out) override {
    Column& c = columns_[op];
    histest::SummaryOptions options;
    options.eps = kEps;
    uint64_t seed = MixSeed(c.seed_base, 2);
    if (mode == OpMode::kTracedAltered) seed ^= 1;
    const double t = NowSeconds();
    auto summary = histest::SummarizeColumn(*c.sketch, options, seed);
    if (mode != OpMode::kTimed) summarize_s_ += NowSeconds() - t;
    if (!summary.ok()) {
      std::fprintf(stderr, "SummarizeColumn(%s): %s\n", c.name.c_str(),
                   summary.status().ToString().c_str());
      return false;
    }
    c.estimator.emplace(summary.value().histogram);
    std::vector<double> estimates;
    for (const histest::RangeQuery& q : c.queries) {
      estimates.push_back(c.estimator->Estimate(q));
    }
    if (fault_ == Fault::kShiftSelectivity && op == 0) estimates[0] += 2 * kEps;

    double worst = 0.0;
    for (size_t q = 0; q < estimates.size(); ++q) {
      worst = std::max(worst, std::fabs(estimates[q] - c.truth[q]));
    }
    const size_t k_star = summary.value().k_star;
    out->right = k_star == kPieces && worst <= kEps &&
                 std::fabs(estimates.back() - 1.0) <= 1e-9;
    out->samples = summary.value().samples_used;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "k*=%zu samples=%" PRId64 " worst=%.4f", k_star,
                  out->samples, worst);
    out->fingerprint = buf;
    for (double e : estimates) {
      std::snprintf(buf, sizeof(buf), " %a", e);
      out->fingerprint += buf;
    }
    return true;
  }

  bool StagesCoverSamples() const override { return false; }

  LayerExtras MeasureExtras() override {
    LayerExtras x;
    x.csv_parse_s = csv_parse_s_;
    x.csv_mb_per_s = csv_bytes_ / 1e6 / csv_parse_s_;
    x.sketch_build_s = sketch_build_s_;
    x.summarize_s = summarize_s_;
    x.distance_to_hk_s = distance_to_hk_s_;
    constexpr int64_t kDraws = int64_t{1} << 22;
    double draw_s = 0.0;
    double query_s = 0.0;
    size_t queries = 0;
    constexpr int kQueryPasses = 2000;
    for (const Column& c : columns_) {
      double best_alias = 1e300, best_draw = 1e300, best_query = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        double t = NowSeconds();
        auto sampler = std::make_shared<const histest::AliasSampler>(
            c.sketch->distribution());
        best_alias = std::min(best_alias, NowSeconds() - t);
        histest::DistributionOracle oracle(sampler, MixSeed(c.seed_base, 99));
        t = NowSeconds();
        const histest::CountVector counts = oracle.DrawCounts(kDraws);
        best_draw = std::min(best_draw, NowSeconds() - t);
        double sink = 0.0;
        t = NowSeconds();
        for (int pass = 0; pass < kQueryPasses; ++pass) {
          for (const histest::RangeQuery& q : c.queries) {
            sink += c.estimator->Estimate(q);
          }
        }
        best_query = std::min(best_query, NowSeconds() - t);
        if (counts.total() != kDraws || !(sink > 0.0)) best_draw = 1e300;
      }
      x.alias_build_s += best_alias;
      draw_s += best_draw;
      query_s += best_query;
      queries += kQueryPasses * c.queries.size();
    }
    x.draw_counts_ns_per_sample =
        1e9 * draw_s / static_cast<double>(kDraws * columns_.size());
    x.selectivity_ns_per_query = 1e9 * query_s / static_cast<double>(queries);
    return x;
  }

 private:
  Fault fault_;
  std::vector<Column> columns_;
  std::vector<OpInfo> ops_;
  double csv_parse_s_ = 0.0;
  double csv_bytes_ = 0.0;
  double sketch_build_s_ = 0.0;
  double summarize_s_ = 0.0;
  double distance_to_hk_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeColumnSummary(uint64_t seed, Fault fault) {
  return std::make_unique<ColumnWorkload>(seed, fault);
}

}  // namespace perfbench
