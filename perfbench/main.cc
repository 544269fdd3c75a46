// Benchmark driver for histest: runs one workload on one thread for a fixed
// time and prints its metrics as one JSON object on the last line of stdout.
//
//   histest_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--inject FAULT]
//
// --trace 0 prints the end-to-end metrics; --trace 1 additionally runs one
// traced round over the same inputs and prints the per-layer metrics. See
// README.md for the workloads, the metrics and the estimator.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

extern char** environ;

namespace perfbench {
namespace {

namespace names = histest::obs::names;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Fault fault = Fault::kNone;
};

constexpr const char* kUsage =
    "usage: histest_perfbench --workload large-domain|many-bins|"
    "column-summary --seed N --seconds S --trace 0|1 [--inject "
    "far-as-in-class|drop-sketch-row|shift-selectivity|traced-samples]\n";

bool ParseUint(const char* s, uint64_t* out) {
  if (*s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || *s == '-') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    const std::string_view flag = argv[i];
    const char* value = argv[++i];
    uint64_t v = 0;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args->seed)) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &v) || v < 1 || v > 3600) return false;
      args->seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUint(value, &v) || v > 1) return false;
      args->trace = v == 1;
      have_trace = true;
    } else if (flag == "--inject") {
      const std::string_view f = value;
      if (f == "far-as-in-class") {
        args->fault = Fault::kFarAsInClass;
      } else if (f == "drop-sketch-row") {
        args->fault = Fault::kDropSketchRow;
      } else if (f == "shift-selectivity") {
        args->fault = Fault::kShiftSelectivity;
      } else if (f == "traced-samples") {
        args->fault = Fault::kTracedSamples;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

/// The first HISTEST_* variable in the environment, or nullptr. Every knob
/// changes what the program does, so a run with one set would not measure
/// the defaults.
const char* SetKnob() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HISTEST_", 8) == 0) return *e;
  }
  return nullptr;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Counter and gauge values of one registry snapshot, by name.
std::map<std::string, int64_t> Values(
    const histest::obs::MetricsSnapshot& snapshot) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : snapshot.counters) out[name] = value;
  for (const auto& [name, value] : snapshot.gauges) out[name] = value;
  return out;
}

int64_t Get(const std::map<std::string, int64_t>& m, const char* name) {
  const auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

/// The kernel tallies, one per common/kernels.cc dispatch wrapper.
constexpr const char* kKernelCounters[] = {
    names::kKernelL1DistanceCalls,        names::kKernelL2DistanceSqCalls,
    names::kKernelSumCalls,               names::kKernelSumSquaresCalls,
    names::kKernelHellingerCalls,         names::kKernelChiSquareCalls,
    names::kKernelZAccumulateCalls,       names::kKernelFusedExpandL1Calls,
    names::kKernelFusedExpandL2Calls,     names::kKernelFusedCountsZCalls,
    names::kKernelFusedCountsChiSquareCalls,
};

/// "histest.kernel.<name>.calls" -> "common.kernel.<name>.calls".
std::string KernelMetricName(std::string_view counter) {
  constexpr std::string_view kPrefix = "histest.kernel.";
  if (counter.substr(0, kPrefix.size()) == kPrefix) {
    counter.remove_prefix(kPrefix.size());
  }
  return "common.kernel." + std::string(counter);
}

struct TracedRound {
  std::vector<OpOutcome> outcomes;
  double seconds = 0.0;
  std::vector<histest::obs::SpanRecord> spans;
  std::map<std::string, int64_t> before;
  std::map<std::string, int64_t> after;
};

/// One round with the obs layer on and a trace session active.
bool RunTracedRound(Workload& w, Fault fault, TracedRound* traced) {
  namespace obs = histest::obs;
  obs::SetEnabled(true);
  obs::TraceSession session("perfbench", obs::MonotonicClock::Get());
  bool ok = true;
  {
    const obs::ScopedTraceActivation activation(&session);
    traced->before = Values(obs::MetricsRegistry::Global().Snapshot());
    const double start = NowSeconds();
    for (size_t i = 0; i < w.Ops().size() && ok; ++i) {
      const OpMode mode = (fault == Fault::kTracedSamples && i == 0)
                              ? OpMode::kTracedAltered
                              : OpMode::kTraced;
      OpOutcome out;
      ok = w.RunOp(i, mode, &out);
      traced->outcomes.push_back(std::move(out));
    }
    traced->seconds = NowSeconds() - start;
    traced->after = Values(obs::MetricsRegistry::Global().Snapshot());
  }
  obs::SetEnabled(false);
  traced->spans = session.Spans();
  return ok;
}

std::vector<Metric> LayerMetrics(const TracedRound& t, double round_s,
                                 const LayerExtras& x) {
  const auto delta = [&](const char* name) {
    return static_cast<double>(Get(t.after, name) - Get(t.before, name));
  };
  const auto span_seconds = [&](const char* name) {
    double s = 0.0;
    for (const auto& span : t.spans) {
      if (span.name == name) s += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
    return s;
  };
  const auto decided = [&](const char* stage) {
    const std::string quoted = std::string("\"") + stage + "\"";
    double count = 0.0;
    for (const auto& span : t.spans) {
      if (span.name != names::kSpanHistogramTest) continue;
      for (const auto& a : span.annotations) {
        if (a.key == "decided_by" && a.json_value == quoted) count += 1.0;
      }
    }
    return count;
  };
  const double approx_s = span_seconds(names::kSpanStageApproxPart);
  const double learner_s = span_seconds(names::kSpanStageLearner);
  const double sieve_s = span_seconds(names::kSpanStageSieve);
  const double check_s = span_seconds(names::kSpanStageCheck);
  const double final_s = span_seconds(names::kSpanStageFinal);
  std::vector<Metric> m = {
      {"core.approx_part_s", approx_s, "s"},
      {"core.learner_s", learner_s, "s"},
      {"core.sieve_s", sieve_s, "s"},
      {"core.check_s", check_s, "s"},
      {"core.final_s", final_s, "s"},
      {"core.unattributed_s",
       t.seconds - (approx_s + learner_s + sieve_s + check_s + final_s), "s"},
      {"core.approx_part_samples", delta(names::kStageApproxPartSamplesDrawn),
       "samples"},
      {"core.learner_samples", delta(names::kStageLearnerSamplesDrawn),
       "samples"},
      {"core.sieve_samples", delta(names::kStageSieveSamplesDrawn), "samples"},
      {"core.final_samples", delta(names::kStageFinalSamplesDrawn), "samples"},
      {"core.partition_intervals", delta(names::kSieveCandidates), "count"},
      {"core.sieve_rounds", delta(names::kSieveRounds), "count"},
      {"core.sieve_removed",
       delta(names::kSieveRemovedHeavy) + delta(names::kSieveRemovedIterative),
       "count"},
      {"core.decided_sieve", decided("sieve"), "count"},
      {"core.decided_check", decided("check"), "count"},
      {"core.decided_final", decided("final"), "count"},
      {"dist.alias_build_s", x.alias_build_s, "s"},
      {"dist.draw_counts_ns_per_sample", x.draw_counts_ns_per_sample,
       "ns/sample"},
      {"testing.oracle_samples",
       delta(names::kOracleBatchSamples) + delta(names::kOracleCountsSamples),
       "samples"},
      {"testing.oracle_dense_fills", delta(names::kOracleCountsDense),
       "count"},
      {"histogram.distance_to_hk_s", x.distance_to_hk_s, "s"},
      {"histogram.fit_dp_cost_probes",
       delta(names::kFitDpL1FastCostProbes) +
           delta(names::kFitDpL1ReferenceCostProbes),
       "count"},
  };
  for (const char* counter : kKernelCounters) {
    m.push_back({KernelMetricName(counter), delta(counter), "count"});
  }
  m.push_back({"common.arena_bytes",
               static_cast<double>(Get(t.after, names::kTrialArenaBytes)),
               "bytes"});
  m.push_back({"app.csv_parse_s", x.csv_parse_s, "s"});
  m.push_back({"app.csv_mb_per_s", x.csv_mb_per_s, "MB/s"});
  m.push_back({"app.sketch_build_s", x.sketch_build_s, "s"});
  m.push_back({"app.summarize_s", x.summarize_s, "s"});
  m.push_back({"app.tester_runs", delta(names::kTesterRuns), "count"});
  m.push_back(
      {"app.selectivity_ns_per_query", x.selectivity_ns_per_query, "ns/query"});
  m.push_back({"obs.trace_overhead_s", t.seconds - round_s, "s"});
  return m;
}

/// Applies the per-group rule to one round's outcomes. Returns the number of
/// failed operations (wrong outputs of known-fault operations).
int64_t CheckRound(const std::vector<OpInfo>& ops,
                   const std::vector<OpOutcome>& outcomes, Checks& checks) {
  std::map<std::string, std::pair<int, int>> groups;  // right, total
  int64_t failed = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].known_fault) {
      if (!outcomes[i].right) ++failed;
      continue;
    }
    auto& g = groups[ops[i].group];
    g.first += outcomes[i].right ? 1 : 0;
    g.second += 1;
  }
  for (const auto& [group, g] : groups) {
    checks.Expect(3 * g.first >= 2 * g.second,
                  group + ": right in " + std::to_string(g.first) + " of " +
                      std::to_string(g.second) +
                      " operations, fewer than 2/3");
  }
  return failed;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (const char* knob = SetKnob()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set; the benchmark "
                 "measures the program's defaults\n",
                 knob);
    return 2;
  }
  histest::obs::RunManifest manifest = histest::obs::CurrentRunManifest();
  manifest.AddParam("workload", args.workload);
  manifest.AddParam("seed", std::to_string(args.seed));
  manifest.AddParam("seconds", FormatNumber(args.seconds));
  manifest.AddParam("trace", args.trace ? "1" : "0");
  std::fprintf(stderr, "manifest: %s\n", manifest.ToJson().c_str());

  std::unique_ptr<Workload> w;
  if (args.workload == "large-domain") {
    w = MakeLargeDomain(args.seed, args.fault);
  } else if (args.workload == "many-bins") {
    w = MakeManyBins(args.seed, args.fault);
  } else if (args.workload == "column-summary") {
    w = MakeColumnSummary(args.seed, args.fault);
  } else {
    std::fputs(kUsage, stderr);
    return 2;
  }

  // Set-up: one cold run in a fresh process; the median over runs is the
  // estimator (a repeat in the same process would be a warm one).
  const double setup_start = NowSeconds();
  if (!w->Setup()) return 1;
  const double setup_s = NowSeconds() - setup_start;

  Checks checks;
  w->CheckInputs(checks);

  // Timed loop: whole rounds, every operation with the same seeds in every
  // round, until another round would overrun --seconds. Each operation's
  // time is the fastest of its repetitions; round_s is their sum.
  const std::vector<OpInfo>& ops = w->Ops();
  std::vector<double> best(ops.size(), std::numeric_limits<double>::infinity());
  std::vector<OpOutcome> first;
  int64_t rounds = 0;
  const double loop_start = NowSeconds();
  double last_round_s = 0.0;
  do {
    const double round_start = NowSeconds();
    for (size_t i = 0; i < ops.size(); ++i) {
      OpOutcome out;
      const double t = NowSeconds();
      if (!w->RunOp(i, OpMode::kTimed, &out)) return 1;
      best[i] = std::min(best[i], NowSeconds() - t);
      if (rounds == 0) {
        first.push_back(std::move(out));
      } else if (out.fingerprint != first[i].fingerprint) {
        checks.Expect(false, "operation " + std::to_string(i) +
                                 " returned another output on an identical "
                                 "repetition");
      }
    }
    last_round_s = NowSeconds() - round_start;
    ++rounds;
    std::fprintf(stderr, "round %" PRId64 ": %.4f s\n", rounds, last_round_s);
  } while (NowSeconds() - loop_start + last_round_s <= args.seconds);

  double round_s = 0.0;
  int64_t samples_per_round = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    round_s += best[i];
    samples_per_round += first[i].samples;
    std::fprintf(stderr, "op %2zu %-16s best %.4f s samples %" PRId64 " %s %s\n",
                 i, ops[i].group.c_str(), best[i], first[i].samples,
                 first[i].right ? "right" : "WRONG",
                 first[i].fingerprint.substr(0, 60).c_str());
  }
  const int64_t failed_per_round = CheckRound(ops, first, checks);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  std::fprintf(stderr,
               "rounds %" PRId64 " round_s %.4f samples %" PRId64
               " user %.2f s sys %.2f s minor faults %ld\n",
               rounds, round_s, samples_per_round,
               static_cast<double>(usage.ru_utime.tv_sec) +
                   1e-6 * static_cast<double>(usage.ru_utime.tv_usec),
               static_cast<double>(usage.ru_stime.tv_sec) +
                   1e-6 * static_cast<double>(usage.ru_stime.tv_usec),
               usage.ru_minflt);

  std::vector<Metric> metrics;
  if (args.trace) {
    TracedRound traced;
    if (!RunTracedRound(*w, args.fault, &traced)) return 1;
    for (size_t i = 0; i < ops.size(); ++i) {
      checks.Expect(traced.outcomes[i].fingerprint == first[i].fingerprint,
                    "traced pass: operation " + std::to_string(i) +
                        " differs from the untraced pass");
    }
    if (w->StagesCoverSamples()) {
      int64_t stage_samples = 0;
      for (const char* c :
           {names::kStageApproxPartSamplesDrawn,
            names::kStageLearnerSamplesDrawn, names::kStageSieveSamplesDrawn,
            names::kStageFinalSamplesDrawn}) {
        stage_samples += Get(traced.after, c) - Get(traced.before, c);
      }
      checks.Expect(stage_samples == samples_per_round,
                    "traced pass: stage samples_drawn counters add up to " +
                        std::to_string(stage_samples) + ", untraced round drew " +
                        std::to_string(samples_per_round));
    }
    metrics = LayerMetrics(traced, round_s, w->MeasureExtras());
  } else {
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"round_s", round_s, "s"},
        {"samples_per_round", static_cast<double>(samples_per_round),
         "samples"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MiB"},
    };
  }
  const int64_t attempted = rounds * static_cast<int64_t>(ops.size());
  PrintResult(checks.all_ok(), attempted, rounds * failed_per_round, metrics);
  return 0;
}

}  // namespace

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  all_ok_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  uint64_t state = seed ^ (tag * 0xd1b54a32d192ed03ULL);
  return SplitMix(state);
}

double UnitDouble(uint64_t& state) {
  return static_cast<double>(SplitMix(state) >> 11) * 0x1.0p-53;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double KPieceL1Fit(const std::vector<Run>& runs, size_t k) {
  const size_t r = runs.size();
  if (r == 0) return 0.0;
  // cost[a * (r + 1) + b]: L1 cost of one constant piece over runs [a, b),
  // at the length-weighted median of their values.
  std::vector<double> cost(r * (r + 1), 0.0);
  for (size_t a = 0; a < r; ++a) {
    std::vector<Run> sorted;
    for (size_t b = a + 1; b <= r; ++b) {
      const Run& add = runs[b - 1];
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), add,
                                     [](const Run& x, const Run& y) {
                                       return x.value < y.value;
                                     }),
                    add);
      double total = 0.0;
      for (const Run& s : sorted) total += s.length;
      double acc = 0.0, median = sorted.back().value;
      for (const Run& s : sorted) {
        acc += s.length;
        if (2.0 * acc >= total) {
          median = s.value;
          break;
        }
      }
      double c = 0.0;
      for (const Run& s : sorted) c += s.length * std::fabs(s.value - median);
      cost[a * (r + 1) + b] = c;
    }
  }
  // best[i]: cheapest cover of runs [0, i) with the pieces used so far.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> best(r + 1, inf), next(r + 1, inf);
  best[0] = 0.0;
  double answer = inf;
  for (size_t pieces = 1; pieces <= std::min(k, r); ++pieces) {
    std::fill(next.begin(), next.end(), inf);
    for (size_t b = 1; b <= r; ++b) {
      for (size_t a = 0; a < b; ++a) {
        if (best[a] < inf) {
          next[b] = std::min(next[b], best[a] + cost[a * (r + 1) + b]);
        }
      }
    }
    best.swap(next);
    answer = std::min(answer, best[r]);
  }
  return answer;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
