#ifndef HISTEST_DIST_DISTRIBUTION_H_
#define HISTEST_DIST_DISTRIBUTION_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/status.h"
#include "dist/interval.h"
#include "dist/prefix_mass.h"

namespace histest {

/// An explicit discrete probability distribution over the domain [0, n),
/// stored as a dense probability mass function.
///
/// Instances are immutable after construction and always represent a valid
/// distribution: all entries non-negative and summing to 1 up to ~1 ulp per
/// element (construction renormalizes with compensated summation).
class Distribution {
 public:
  /// Validates `pmf` (non-empty, non-negative entries, total within
  /// kMassTolerance of 1) and renormalizes exactly.
  static Result<Distribution> Create(std::vector<double> pmf);

  /// Builds a distribution from any non-negative, non-zero weight vector by
  /// normalizing it. Fails when the weights' total overflows to infinity.
  static Result<Distribution> FromWeights(std::vector<double> weights);

  /// The uniform distribution over [0, n). Requires n > 0.
  static Distribution UniformOver(size_t n);

  /// The point mass at element i of a size-n domain. Requires i < n.
  static Distribution PointMass(size_t n, size_t i);

  /// Tolerance on |sum(pmf) - 1| accepted by Create().
  static constexpr double kMassTolerance = 1e-6;

  Distribution(const Distribution& other);
  Distribution& operator=(const Distribution& other);
  Distribution(Distribution&& other) noexcept;
  Distribution& operator=(Distribution&& other) noexcept;
  ~Distribution();

  /// Domain size n.
  size_t size() const { return pmf_.size(); }

  /// Probability of element i. Requires i < size().
  double operator[](size_t i) const { return pmf_[i]; }

  const std::vector<double>& pmf() const { return pmf_; }

  /// Probability mass of the interval (O(|interval|)). Deliberately does
  /// NOT consult the lazy prefix index: whether the index exists at call
  /// time can depend on thread interleaving on a shared instance, and a
  /// result that changes (by ulps) with the schedule would break the
  /// bit-identical reproducibility contract. Hot paths that want O(1)
  /// interval masses call PrefixIndex().MassOf(...) explicitly.
  double MassOf(const Interval& interval) const;

  /// The lazily built, immutable prefix-mass index over this pmf: O(n)
  /// one-shot construction, O(1) interval-mass queries thereafter.
  ///
  /// Thread-safety: safe to call from any number of threads concurrently
  /// (the PR-1 pipeline shares one Distribution across all trial workers).
  /// The first callers may race to build; publication is a single
  /// compare-exchange, losers discard their copy, and every caller observes
  /// the same immutable index. Both racers build identical content, so
  /// results are schedule-independent.
  const PrefixMassIndex& PrefixIndex() const;

  /// Inclusive CDF: out[i] = P[X <= i]; out.back() == 1 exactly.
  std::vector<double> Cdf() const;

  /// Largest single-element probability.
  double MaxProbability() const;

  /// Number of elements with non-zero probability.
  size_t SupportSize() const;

  /// The conditional distribution given the union of `intervals` (which must
  /// be disjoint and carry positive mass).
  Result<Distribution> ConditionedOn(const std::vector<Interval>& intervals) const;

 private:
  explicit Distribution(std::vector<double> pmf) : pmf_(std::move(pmf)) {}

  std::vector<double> pmf_;
  /// Lazily published by PrefixIndex(); owned. Copies start empty (the
  /// index is a pure function of pmf_ and rebuilds identically on demand);
  /// moves steal it.
  ///
  /// Concurrency contract (lock-free by design, so no HISTEST_GUARDED_BY —
  /// there is deliberately no mutex for the thread-safety analysis to
  /// check): publication is a single compare_exchange_strong with *release*
  /// ordering on success, so every field of the fully built PrefixMassIndex
  /// happens-before the pointer becoming visible; all readers load with
  /// *acquire*, so a non-null pointer implies a complete, immutable index.
  /// Losers of the publication race delete their private copy and adopt the
  /// winner's — both copies are bit-identical functions of pmf_, keeping
  /// results schedule-independent. The pointer is only torn down by
  /// assignment/destruction, which require external happens-before with all
  /// readers anyway (standard shared-object lifetime rules); the annotated
  /// mutex wrappers in common/mutex.h are the wrong tool for this shape,
  /// and a lock here would serialize the hot read path every trial takes.
  mutable std::atomic<const PrefixMassIndex*> prefix_index_{nullptr};
};

}  // namespace histest

#endif  // HISTEST_DIST_DISTRIBUTION_H_
