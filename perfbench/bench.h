// Shared pieces of the benchmark driver: the workload interface, the
// correctness ledger, seed mixing and the benchmark's own k-piece fit.
//
// Everything here is the benchmark's own code. The program under test is
// reached only through the public entry points each workload calls.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// A deliberate corruption of one output, applied before the benchmark's
/// checks see it. Each one must make `correct` read false; the fault test
/// (test_faults.py) runs every one of them.
enum class Fault {
  kNone,
  kFarAsInClass,     // a far instance is labelled in-class
  kDropSketchRow,    // one parsed row never reaches ColumnSketch::Build
  kShiftSelectivity, // one range estimate is moved by 2 eps
  kTracedSamples,    // the traced pass draws from another oracle seed
};

/// Records failed correctness checks. Every failure is printed to stderr
/// with its reason, so a run that reads `correct: false` says why.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool all_ok() const { return all_ok_; }

 private:
  bool all_ok_ = true;
};

/// How an operation is run: in the timed loop, in the traced pass, or in the
/// traced pass with the oracle seed altered (Fault::kTracedSamples).
enum class OpMode { kTimed, kTraced, kTracedAltered };

/// What one operation returned.
struct OpOutcome {
  /// Everything the program returned that must repeat exactly across
  /// identical repetitions and in the traced pass.
  std::string fingerprint;
  /// Oracle draws the operation made.
  int64_t samples = 0;
  /// Whether the output agrees with the benchmark's own truth (the verdict
  /// of the instance's side; k* and every range estimate within eps).
  bool right = false;
};

/// Static description of one operation of a round.
struct OpInfo {
  /// Operations with the same group are decisions on one instance; at least
  /// 2/3 of a group must be right (Theorem 3.1), unless the group is a
  /// known fault.
  std::string group;
  /// The operation fails every time because of a known fault of the
  /// program, on inputs that do not depend on --seed. Each wrong output is
  /// counted as a failed operation instead of failing the run.
  bool known_fault = false;
};

/// Per-layer figures a workload measures with its own timers outside the
/// traced round. Fields a workload does not exercise stay 0.
struct LayerExtras {
  double alias_build_s = 0.0;
  double draw_counts_ns_per_sample = 0.0;
  double distance_to_hk_s = 0.0;
  double csv_parse_s = 0.0;
  double csv_mb_per_s = 0.0;
  double sketch_build_s = 0.0;
  double summarize_s = 0.0;
  double selectivity_ns_per_query = 0.0;
};

/// One workload. The driver calls Setup once (timed as setup_s), then
/// CheckInputs, then runs rounds of RunOp(0..NumOps()-1).
class Workload {
 public:
  virtual ~Workload() = default;
  /// The program's cold set-up before the first operation. Returns false on
  /// an error status (printed to stderr).
  virtual bool Setup() = 0;
  /// Checks that need no operation: far certificates against DistanceToHk,
  /// sketch counts against the benchmark's own tally.
  virtual void CheckInputs(Checks& checks) = 0;
  virtual const std::vector<OpInfo>& Ops() const = 0;
  /// Runs one operation. Returns false on an error status.
  virtual bool RunOp(size_t op, OpMode mode, OpOutcome* out) = 0;
  /// True when the histest.stage.*.samples_drawn counters must add up to
  /// the round's oracle draws (the round is nothing but tester decisions).
  virtual bool StagesCoverSamples() const = 0;
  /// Measures the per-layer figures taken outside the traced round.
  virtual LayerExtras MeasureExtras() = 0;
};

std::unique_ptr<Workload> MakeLargeDomain(uint64_t seed, Fault fault);
std::unique_ptr<Workload> MakeManyBins(uint64_t seed, Fault fault);
std::unique_ptr<Workload> MakeColumnSummary(uint64_t seed, Fault fault);

/// SplitMix64 step; the benchmark's only source of randomness for inputs,
/// so its inputs do not change when the program's Rng does.
uint64_t SplitMix(uint64_t& state);
/// A seed for the stream named `tag` under the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t tag);
/// Uniform double in [0, 1).
double UnitDouble(uint64_t& state);

/// A constant run of a piecewise-constant function.
struct Run {
  double value = 0.0;
  double length = 0.0;
};

/// Exact minimum L1 distance from the run-length function `runs` to any
/// function with at most k constant pieces. Breakpoints at run boundaries
/// suffice (the cost is linear in a breakpoint's position inside a run), so
/// this is a DP over runs with weighted-median segment costs. Half of it is
/// a lower bound on the TV distance to H_k.
double KPieceL1Fit(const std::vector<Run>& runs, size_t k);

/// Seconds on a monotonic clock.
double NowSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
