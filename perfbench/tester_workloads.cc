// The two Algorithm 1 workloads: one operation is one
// HistogramTester::TestWithReport decision on a DistributionOracle built on
// a shared AliasSampler.
//
//   large-domain  n = 2^20, k = 4,  eps = 0.25: the sqrt(n) term (sieve and
//                 final test passes over n, sampling).
//   many-bins     n = 4096, k = 64, eps = 0.3:  the poly(k, 1/eps) term
//                 (learner over ~2000-3500 intervals, the check stage's DP).
//
// Each has three instances, decided three times per round with distinct
// seeds: an in-class k-histogram, a Paninski Q_eps member and a comb of
// alternating empty and full blocks.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/histogram_tester.h"
#include "dist/distribution.h"
#include "dist/sampler.h"
#include "histogram/distance_to_hk.h"
#include "testing/oracle.h"

namespace perfbench {
namespace {

using histest::AliasSampler;
using histest::Distribution;

struct TesterParams {
  size_t n;
  size_t k;
  double eps;
  /// Blocks of the comb: alternately empty and full, starting empty.
  size_t comb_blocks;
  /// A comb decision is a known fault (the sieve hides its empty blocks).
  bool comb_is_known_fault;
};

/// Paninski amplitude c: pair masses (1 +/- c eps) / n.
constexpr double kPaninskiC = 2.5;
/// Decisions per instance and round.
constexpr int kDecisions = 3;
/// The comb and the seeds of its decisions never depend on --seed, so a
/// comb decision that fails, fails in every run.
constexpr uint64_t kCombSeed = 0x636f6d62u;
/// DistanceToHk's greedy coarsening holds memory that grows with the square
/// of the atom count on a Paninski member (about 1.8 GB at n = 65536), so
/// it is only asked about Paninski members up to this size.
constexpr size_t kPaninskiDistanceMaxN = 16384;

enum class Kind { kInClass, kPaninski, kComb };

struct Instance {
  Kind kind = Kind::kInClass;
  std::string name;
  bool far = false;
  /// TV lower bound to H_k the benchmark proves itself (far instances).
  double certified_lower = 0.0;
  /// Own k-piece fit, halved (combs).
  double own_fit_tv = 0.0;
  uint64_t seed_base = 0;
  std::vector<double> weights;  // moved into the program by Setup
  std::optional<Distribution> dist;
  std::shared_ptr<const AliasSampler> sampler;
};

class TesterWorkload : public Workload {
 public:
  TesterWorkload(const TesterParams& p, uint64_t seed, Fault fault)
      : p_(p), seed_(seed) {
    instances_.push_back(MakeInClass());
    instances_.push_back(MakePaninski());
    instances_.push_back(MakeComb());
    if (fault == Fault::kFarAsInClass) instances_[1].far = false;
    for (const Instance& inst : instances_) {
      for (int d = 0; d < kDecisions; ++d) {
        ops_.push_back(
            OpInfo{inst.name, inst.kind == Kind::kComb && p_.comb_is_known_fault});
      }
    }
  }

  bool Setup() override {
    for (Instance& inst : instances_) {
      auto dist = Distribution::FromWeights(std::move(inst.weights));
      if (!dist.ok()) {
        std::fprintf(stderr, "FromWeights(%s): %s\n", inst.name.c_str(),
                     dist.status().ToString().c_str());
        return false;
      }
      inst.dist.emplace(std::move(dist).value());
      const double t = NowSeconds();
      inst.sampler = std::make_shared<const AliasSampler>(*inst.dist);
      alias_build_s_ += NowSeconds() - t;
    }
    return true;
  }

  void CheckInputs(Checks& checks) override {
    for (const Instance& inst : instances_) {
      if (inst.far) {
        checks.Expect(inst.certified_lower >= p_.eps,
                      inst.name + ": certified TV lower bound " +
                          std::to_string(inst.certified_lower) +
                          " is below eps");
      }
      if (inst.kind == Kind::kPaninski && p_.n > kPaninskiDistanceMaxN) {
        std::fprintf(stderr, "%s: DistanceToHk not asked (n = %zu)\n",
                     inst.name.c_str(), p_.n);
        continue;
      }
      const double t = NowSeconds();
      auto bounds = histest::DistanceToHk(*inst.dist, p_.k);
      distance_to_hk_s_ += NowSeconds() - t;
      if (!bounds.ok()) {
        checks.Expect(false, inst.name + ": DistanceToHk: " +
                                 bounds.status().ToString());
        continue;
      }
      const histest::DistanceBounds b = bounds.value();
      std::fprintf(stderr, "%s: DistanceToHk [%.6g, %.6g] certified %.6g\n",
                   inst.name.c_str(), b.lower, b.upper, inst.certified_lower);
      if (inst.far) {
        checks.Expect(b.upper >= inst.certified_lower,
                      inst.name + ": DistanceToHk upper bound is below the "
                                  "certified lower bound");
      } else {
        checks.Expect(b.upper <= 1e-9, inst.name +
                                           ": DistanceToHk upper bound of an "
                                           "in-class instance exceeds 1e-9");
      }
      if (inst.kind == Kind::kComb) {
        checks.Expect(std::fabs(b.lower - inst.own_fit_tv) <= 1e-9,
                      inst.name + ": DistanceToHk lower bound differs from "
                                  "the benchmark's own k-piece fit");
      }
    }
  }

  const std::vector<OpInfo>& Ops() const override { return ops_; }

  bool RunOp(size_t op, OpMode mode, OpOutcome* out) override {
    const Instance& inst = instances_[op / kDecisions];
    const uint64_t d = op % kDecisions;
    uint64_t oracle_seed = MixSeed(inst.seed_base, 2 * d);
    if (mode == OpMode::kTracedAltered) oracle_seed ^= 1;
    histest::DistributionOracle oracle(inst.sampler, oracle_seed);
    histest::HistogramTester tester(p_.k, p_.eps,
                                    histest::HistogramTesterOptions{},
                                    MixSeed(inst.seed_base, 2 * d + 1));
    auto report = tester.TestWithReport(oracle);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: TestWithReport: %s\n", inst.name.c_str(),
                   report.status().ToString().c_str());
      return false;
    }
    const histest::HistogramTestReport& r = report.value();
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s by=%s samples=%" PRId64 " K=%zu removed=%zu",
                  histest::VerdictToString(r.verdict), r.decided_by.c_str(),
                  r.samples_total, r.partition_size, r.removed_intervals);
    out->fingerprint = buf;
    out->samples = r.samples_total;
    out->right = (r.verdict == histest::Verdict::kReject) == inst.far;
    return true;
  }

  bool StagesCoverSamples() const override { return true; }

  LayerExtras MeasureExtras() override {
    LayerExtras x;
    x.alias_build_s = alias_build_s_;
    x.distance_to_hk_s = distance_to_hk_s_;
    // DrawCounts on each instance's own sampler, fastest of three.
    constexpr int64_t kDraws = int64_t{1} << 22;
    double seconds = 0.0;
    for (const Instance& inst : instances_) {
      double best = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        histest::DistributionOracle oracle(inst.sampler,
                                           MixSeed(inst.seed_base, 99));
        const double t = NowSeconds();
        const histest::CountVector counts = oracle.DrawCounts(kDraws);
        best = std::min(best, NowSeconds() - t);
        if (counts.total() != kDraws) best = 1e300;
      }
      seconds += best;
    }
    x.draw_counts_ns_per_sample =
        1e9 * seconds / static_cast<double>(kDraws * instances_.size());
    return x;
  }

 private:
  Instance MakeInClass() const {
    Instance inst;
    inst.kind = Kind::kInClass;
    inst.name = "in-class";
    inst.seed_base = MixSeed(seed_, 1);
    uint64_t s = MixSeed(seed_, 11);
    // Piece j has length weight 1 + j % 3 and level 1 + (7j mod 5) / 2; the
    // seed only shuffles the pieces' order. The multiset of (length, level)
    // pairs is the same for every seed, so the work of a decision hardly
    // depends on the seed while the breakpoints do.
    std::vector<std::pair<size_t, double>> pieces;
    size_t weight_total = 0;
    for (size_t j = 0; j < p_.k; ++j) weight_total += 1 + j % 3;
    size_t assigned = 0;
    for (size_t j = 0; j < p_.k; ++j) {
      const size_t len = j + 1 == p_.k ? p_.n - assigned
                                       : p_.n * (1 + j % 3) / weight_total;
      assigned += len;
      pieces.emplace_back(len, 1.0 + 0.5 * static_cast<double>(7 * j % 5));
    }
    for (size_t i = pieces.size() - 1; i > 0; --i) {
      std::swap(pieces[i], pieces[SplitMix(s) % (i + 1)]);
    }
    inst.weights.reserve(p_.n);
    for (const auto& [len, level] : pieces) {
      inst.weights.insert(inst.weights.end(), len, level);
    }
    return inst;
  }

  Instance MakePaninski() const {
    Instance inst;
    inst.kind = Kind::kPaninski;
    inst.name = "paninski";
    inst.far = true;
    inst.seed_base = MixSeed(seed_, 2);
    uint64_t s = MixSeed(seed_, 12);
    const double a = kPaninskiC * p_.eps;
    inst.weights.resize(p_.n);
    for (size_t i = 0; i + 1 < p_.n; i += 2) {
      const double sign = (SplitMix(s) & 1) != 0 ? 1.0 : -1.0;
      inst.weights[i] = 1.0 + sign * a;
      inst.weights[i + 1] = 1.0 - sign * a;
    }
    // Prop 4.1: a k-histogram is constant on all but k - 1 of the n/2
    // pairs, and a constant pair is a/n from the member in TV.
    const double n = static_cast<double>(p_.n);
    inst.certified_lower = (n / 2.0 - static_cast<double>(p_.k - 1)) * a / n;
    return inst;
  }

  Instance MakeComb() const {
    Instance inst;
    inst.kind = Kind::kComb;
    inst.name = "comb";
    inst.far = true;
    inst.seed_base = kCombSeed;
    const size_t width = p_.n / p_.comb_blocks;
    inst.weights.assign(p_.n, 0.0);
    std::vector<Run> runs;
    const double full = 2.0 / static_cast<double>(p_.n);
    for (size_t b = 0; b < p_.comb_blocks; ++b) {
      const bool filled = b % 2 == 1;
      if (filled) {
        std::fill(inst.weights.begin() + static_cast<std::ptrdiff_t>(b * width),
                  inst.weights.begin() + static_cast<std::ptrdiff_t>((b + 1) * width),
                  1.0);
      }
      runs.push_back(Run{filled ? full : 0.0, static_cast<double>(width)});
    }
    inst.own_fit_tv = 0.5 * KPieceL1Fit(runs, p_.k);
    inst.certified_lower = inst.own_fit_tv;
    return inst;
  }

  TesterParams p_;
  uint64_t seed_;
  std::vector<Instance> instances_;
  std::vector<OpInfo> ops_;
  double alias_build_s_ = 0.0;
  double distance_to_hk_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeLargeDomain(uint64_t seed, Fault fault) {
  return std::make_unique<TesterWorkload>(
      TesterParams{size_t{1} << 20, 4, 0.25, 8, true}, seed, fault);
}

std::unique_ptr<Workload> MakeManyBins(uint64_t seed, Fault fault) {
  return std::make_unique<TesterWorkload>(
      TesterParams{4096, 64, 0.3, 256, false}, seed, fault);
}

}  // namespace perfbench
