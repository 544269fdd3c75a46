#include "histogram/fit_merge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/math_util.h"

namespace histest {
namespace {

/// A live segment in the greedy merger: a run of original atoms kept as a
/// value-sorted (value, weight) list for weighted-median cost evaluation.
struct Segment {
  std::vector<std::pair<double, double>> sorted_vw;  // kept atoms only
  double total_length = 0.0;
  double total_weight = 0.0;
  double cost = 0.0;  // weighted-median L1 cost of this segment
  size_t prev = std::numeric_limits<size_t>::max();
  size_t next = std::numeric_limits<size_t>::max();
  size_t version = 0;
  bool alive = true;
};

/// Weighted-median L1 cost of a value-sorted (value, weight) list.
double MedianCost(const std::vector<std::pair<double, double>>& vw,
                  double total_weight, double* median_out) {
  if (vw.empty() || total_weight <= 0.0) {
    if (median_out != nullptr) *median_out = 0.0;
    return 0.0;
  }
  double acc = 0.0;
  size_t med_idx = vw.size() - 1;
  for (size_t i = 0; i < vw.size(); ++i) {
    // analyzer-allow(raw-accumulate): weighted-median prefix scan with an
    // early exit at half mass; a blocked reduction has no prefix to test.
    acc += vw[i].second;
    if (acc >= 0.5 * total_weight) {
      med_idx = i;
      break;
    }
  }
  const double med = vw[med_idx].first;
  KahanSum cost;
  for (const auto& [v, w] : vw) cost.Add(w * std::fabs(v - med));
  if (median_out != nullptr) *median_out = med;
  return cost.Total();
}

std::vector<std::pair<double, double>> MergeSorted(
    const std::vector<std::pair<double, double>>& a,
    const std::vector<std::pair<double, double>>& b) {
  std::vector<std::pair<double, double>> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

struct HeapEntry {
  double cost_increase;
  size_t left;           // segment id; merge candidate is (left, left.next)
  size_t left_version;
  size_t right_version;

  bool operator>(const HeapEntry& other) const {
    return cost_increase > other.cost_increase;
  }
};

}  // namespace

Result<CoarsenResult> GreedyMergeAtoms(const std::vector<WeightedAtom>& atoms,
                                       size_t target_count) {
  if (atoms.empty()) return Status::InvalidArgument("atom sequence is empty");
  if (target_count == 0) {
    return Status::InvalidArgument("target_count must be >= 1");
  }
  const size_t m = atoms.size();
  std::vector<Segment> segments(m);
  for (size_t i = 0; i < m; ++i) {
    Segment& s = segments[i];
    if (atoms[i].cost_weight > 0.0) {
      s.sorted_vw.emplace_back(atoms[i].value, atoms[i].cost_weight);
      s.total_weight = atoms[i].cost_weight;
    }
    s.total_length = atoms[i].length;
    s.cost = 0.0;
    s.prev = (i == 0) ? std::numeric_limits<size_t>::max() : i - 1;
    s.next = (i + 1 == m) ? std::numeric_limits<size_t>::max() : i + 1;
  }

  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  auto push_candidate = [&](size_t left) {
    const size_t right = segments[left].next;
    if (right == std::numeric_limits<size_t>::max()) return;
    const auto merged = MergeSorted(segments[left].sorted_vw,
                                    segments[right].sorted_vw);
    const double merged_cost = MedianCost(
        merged, segments[left].total_weight + segments[right].total_weight,
        nullptr);
    heap.push(HeapEntry{
        merged_cost - segments[left].cost - segments[right].cost, left,
        segments[left].version, segments[right].version});
  };
  for (size_t i = 0; i + 1 < m; ++i) push_candidate(i);

  size_t live = m;
  size_t head = 0;
  while (live > target_count) {
    HISTEST_CHECK(!heap.empty());
    const HeapEntry top = heap.top();
    heap.pop();
    Segment& left = segments[top.left];
    if (!left.alive || left.version != top.left_version) continue;
    const size_t right_id = left.next;
    if (right_id == std::numeric_limits<size_t>::max()) continue;
    Segment& right = segments[right_id];
    if (!right.alive || right.version != top.right_version) continue;
    // Execute the merge into `left`.
    left.sorted_vw = MergeSorted(left.sorted_vw, right.sorted_vw);
    left.total_length += right.total_length;
    left.total_weight += right.total_weight;
    left.cost = MedianCost(left.sorted_vw, left.total_weight, nullptr);
    left.next = right.next;
    if (right.next != std::numeric_limits<size_t>::max()) {
      segments[right.next].prev = top.left;
    }
    right.alive = false;
    // Dead segments are never read again; release their atoms now so
    // memory stays linear in m instead of holding every merged-away copy.
    std::vector<std::pair<double, double>>().swap(right.sorted_vw);
    ++left.version;
    --live;
    if (left.prev != std::numeric_limits<size_t>::max()) {
      push_candidate(left.prev);
    }
    push_candidate(top.left);
  }

  CoarsenResult result;
  KahanSum error;
  for (size_t id = head; id != std::numeric_limits<size_t>::max();
       id = segments[id].next) {
    const Segment& s = segments[id];
    double median = 0.0;
    const double cost = MedianCost(s.sorted_vw, s.total_weight, &median);
    error.Add(cost);
    result.atoms.push_back(
        WeightedAtom{median, s.total_length, s.total_weight});
  }
  result.coarsening_error = error.Total();
  return result;
}

Result<PiecewiseConstant> LearnMergedHistogram(const CountVector& counts,
                                               size_t t, PieceValueRule rule) {
  if (counts.total() == 0) {
    return Status::FailedPrecondition("cannot learn from zero samples");
  }
  if (t == 0) return Status::InvalidArgument("t must be >= 1");
  auto empirical = counts.ToEmpirical();
  HISTEST_RETURN_IF_ERROR(empirical.status());
  const std::vector<double>& pmf = empirical.value().pmf();
  const PrefixMassIndex& index = empirical.value().PrefixIndex();
  std::vector<WeightedAtom> atoms = AtomsFromDense(pmf);
  auto coarse = GreedyMergeAtoms(atoms, t);
  HISTEST_RETURN_IF_ERROR(coarse.status());

  // Rebuild piece boundaries (element offsets) from the coarsened lengths,
  // choosing each piece's value per `rule`.
  std::vector<PiecewiseConstant::Piece> pieces;
  size_t cursor = 0;
  for (const WeightedAtom& a : coarse.value().atoms) {
    const size_t len = static_cast<size_t>(std::llround(a.length));
    const Interval iv{cursor, cursor + len};
    double value = a.value;  // kMedian: the merged run's weighted median
    if (rule == PieceValueRule::kAverage) {
      // Piece average of the empirical distribution (mass-preserving);
      // O(1) per piece from the prefix index.
      value = index.MassOf(iv) / static_cast<double>(len);
    }
    pieces.push_back(PiecewiseConstant::Piece{iv, value});
    cursor += len;
  }
  auto pwc = PiecewiseConstant::Create(counts.size(), std::move(pieces));
  HISTEST_RETURN_IF_ERROR(pwc.status());
  if (rule == PieceValueRule::kAverage) return pwc;
  return pwc.value().Normalized();
}

}  // namespace histest
