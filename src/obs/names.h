#ifndef HISTEST_OBS_NAMES_H_
#define HISTEST_OBS_NAMES_H_

/// Single source of truth for every metric, gauge, histogram, and trace-span
/// name the library emits.
///
/// Instrumentation call sites (obs::AddCount / SetGauge / ObserveHistogram,
/// TraceSpan and ScopedTimer constructors) must use the constants defined
/// here — the obs-name-discipline analyzer checker bans free-form string
/// literals at those sites, so a typo can no longer fork a counter into two
/// names that tooling silently treats as different metrics.
///
/// The X-macro list below is machine-readable: tools/obs_names.py parses
/// this header (entries, SIMD variant/kernel lists, and the tally-name
/// pattern) and feeds tools/trace_gate.py (unknown-name CI gate),
/// tools/histest-trace (advisory name validation), and
/// tools/gen_obs_names_table.py (the generated DESIGN.md table, kept in
/// sync by CI). Edit names HERE and nowhere else.
///
/// Entry format: X(ident, "name", kind, "description") where kind is one of
/// counter | gauge | histogram | span.

// clang-format off
#define HISTEST_OBS_NAMES(X)                                                   \
  /* ---- thread pool (src/benchutil/parallel.cc) ---- */                      \
  X(kPoolRuns, "histest.pool.runs", counter,                                   \
    "ThreadPool::Run invocations")                                             \
  X(kPoolJobs, "histest.pool.jobs", counter,                                   \
    "jobs submitted across all ThreadPool::Run calls")                         \
  X(kPoolRunSeconds, "histest.pool.run_seconds", histogram,                    \
    "wall seconds per ThreadPool::Run (ScopedTimer)")                          \
  X(kPoolQueueDepth, "histest.pool.queue_depth", gauge,                        \
    "tasks currently queued on the shared pool")                               \
  X(kPoolWorkers, "histest.pool.workers", gauge,                               \
    "worker threads in the shared pool")                                       \
  /* ---- trial harness (src/benchutil/parallel.cc) ---- */                    \
  X(kTrialsRun, "histest.trials.run", counter,                                 \
    "completed acceptance-estimation trials")                                  \
  X(kTrialArenaBytes, "histest.trial.arena_bytes", gauge,                      \
    "scratch-arena high-water mark of the reporting thread")                   \
  /* ---- tester pipeline (src/core/histogram_tester.cc) ---- */               \
  X(kTesterRuns, "histest.tester.runs", counter,                               \
    "HistogramTester::TestWithReport completions")                             \
  X(kStageApproxPartSamplesDrawn,                                              \
    "histest.stage.approx_part.samples_drawn", counter,                        \
    "oracle samples drawn by the ApproxPart stage")                            \
  X(kStageLearnerSamplesDrawn, "histest.stage.learner.samples_drawn",          \
    counter, "oracle samples drawn by the chi-square learner stage")           \
  X(kStageSieveSamplesDrawn, "histest.stage.sieve.samples_drawn", counter,     \
    "oracle samples drawn by the sieve stage")                                 \
  X(kStageFinalSamplesDrawn, "histest.stage.final.samples_drawn", counter,     \
    "oracle samples drawn by the final ADK identity test")                     \
  /* ---- sieve funnel (src/core/sieve.cc) ---- */                             \
  X(kSieveCandidates, "histest.sieve.candidates", counter,                     \
    "breakpoint intervals entering the sieve")                                 \
  X(kSieveSurvivors, "histest.sieve.survivors", counter,                       \
    "intervals still active when the sieve returned")                          \
  X(kSieveRemovedHeavy, "histest.sieve.removed_heavy", counter,                \
    "intervals removed by the heavy-prefix pass")                              \
  X(kSieveRemovedIterative, "histest.sieve.removed_iterative", counter,        \
    "intervals removed by iterative sieve rounds")                             \
  X(kSieveRounds, "histest.sieve.rounds", counter,                             \
    "iterative sieve rounds executed")                                         \
  /* ---- sample oracle (src/testing/oracle.cc) ---- */                        \
  X(kOracleBatchSamples, "histest.oracle.batch_samples", counter,              \
    "samples drawn through DrawBatch")                                         \
  X(kOracleBatches, "histest.oracle.batches", counter,                         \
    "DrawBatch invocations")                                                   \
  X(kOracleCountsSamples, "histest.oracle.counts_samples", counter,            \
    "samples drawn through DrawCounts")                                        \
  X(kOracleCountsSparse, "histest.oracle.counts_sparse", counter,              \
    "DrawCounts calls that produced a sparse CountVector")                     \
  X(kOracleCountsDense, "histest.oracle.counts_dense", counter,                \
    "DrawCounts calls that produced a dense CountVector")                      \
  /* ---- fit DP cost probes (src/histogram/fit_dp.cc) ---- */                 \
  X(kFitDpL1ReferenceCostProbes,                                               \
    "histest.fit_dp.l1.reference.cost_probes", counter,                        \
    "segment-cost evaluations in the reference L1 fit DP")                     \
  X(kFitDpL1ReferenceCalls, "histest.fit_dp.l1.reference.calls", counter,      \
    "reference-mode FitAtomsL1 invocations")                                   \
  X(kFitDpL1FastCostProbes, "histest.fit_dp.l1.fast.cost_probes", counter,     \
    "rank-tree cost probes in the fast L1 fit DP")                             \
  X(kFitDpL1FastCalls, "histest.fit_dp.l1.fast.calls", counter,                \
    "fast-mode FitAtomsL1 invocations")                                        \
  /* ---- kernel entry points (src/common/kernels.cc) ---- */                  \
  X(kKernelL1DistanceCalls, "histest.kernel.l1_distance.calls", counter,       \
    "L1Distance dispatch-wrapper calls")                                       \
  X(kKernelL2DistanceSqCalls, "histest.kernel.l2_distance_sq.calls",           \
    counter, "L2DistanceSquared dispatch-wrapper calls")                       \
  X(kKernelSumCalls, "histest.kernel.sum.calls", counter,                      \
    "SumOf dispatch-wrapper calls")                                            \
  X(kKernelSumSquaresCalls, "histest.kernel.sum_squares.calls", counter,       \
    "SumOfSquares dispatch-wrapper calls")                                     \
  X(kKernelHellingerCalls, "histest.kernel.hellinger.calls", counter,          \
    "HellingerAffinity dispatch-wrapper calls")                                \
  X(kKernelChiSquareCalls, "histest.kernel.chi_square.calls", counter,         \
    "ChiSquareStatistic dispatch-wrapper calls")                               \
  X(kKernelZAccumulateCalls, "histest.kernel.z_accumulate.calls", counter,     \
    "ZAccumulate dispatch-wrapper calls")                                      \
  X(kKernelFusedExpandL1Calls, "histest.kernel.fused_expand_l1.calls",         \
    counter, "FusedExpandL1 dispatch-wrapper calls")                           \
  X(kKernelFusedExpandL2Calls, "histest.kernel.fused_expand_l2.calls",         \
    counter, "FusedExpandL2 dispatch-wrapper calls")                           \
  X(kKernelFusedCountsZCalls, "histest.kernel.fused_counts_z.calls",           \
    counter, "FusedCountsZ dispatch-wrapper calls")                            \
  X(kKernelFusedCountsChiSquareCalls,                                          \
    "histest.kernel.fused_counts_chi_square.calls", counter,                   \
    "FusedCountsChiSquare dispatch-wrapper calls")                             \
  /* ---- SIMD dispatch state (src/common/simd/simd.cc) ---- */                \
  X(kSimdActiveVariant, "histest.simd.active_variant", gauge,                  \
    "installed dispatch variant (Variant enum value)")                         \
  X(kSimdCpuAvx2, "histest.simd.cpu.avx2", gauge,                              \
    "CPUID probe: AVX2 available")                                             \
  X(kSimdCpuAvx512f, "histest.simd.cpu.avx512f", gauge,                        \
    "CPUID probe: AVX-512F available")                                         \
  X(kSimdCpuNeon, "histest.simd.cpu.neon", gauge,                              \
    "probe: NEON/AdvSIMD available")                                           \
  /* ---- bench harness (bench/exp_common.h) ---- */                           \
  X(kBenchGridSeconds, "histest.bench.grid_seconds", histogram,                \
    "wall seconds per experiment grid sweep (ScopedTimer)")                    \
  /* ---- flight recorder (src/obs/flight_recorder.cc) ---- */                 \
  X(kRecorderThreads, "histest.recorder.threads", gauge,                       \
    "threads holding a registered flight-recorder ring")                       \
  /* ---- trace spans ---- */                                                  \
  X(kSpanHistogramTest, "histogram_test", span,                                \
    "one HistogramTester run; parent of the stage spans")                      \
  X(kSpanTrial, "trial", span,                                                 \
    "one acceptance-estimation trial on a pool thread")                        \
  X(kSpanRunGrid, "run_grid", span,                                            \
    "one experiment workload-grid sweep (bench harness)")                      \
  X(kSpanStageApproxPart, "stage.approx_part", span,                           \
    "ApproxPart stage of Algorithm 1")                                         \
  X(kSpanStageLearner, "stage.learner", span,                                  \
    "chi-square learner stage")                                                \
  X(kSpanStageSieve, "stage.sieve", span, "sieving stage")                     \
  X(kSpanStageCheck, "stage.check", span,                                      \
    "offline closeness check (draws no samples)")                              \
  X(kSpanStageFinal, "stage.final", span,                                      \
    "final restricted ADK identity test")

/// Per-variant dispatch tallies are a cross product, not a flat list: every
/// compiled SIMD backend tallies each dispatched kernel under
/// "histest.simd.<variant>.<kernel>.calls". The two lists below and the
/// pattern macro are the one source for all of them; KernelTable::tally in
/// src/common/simd/simd.cc is built by expanding
/// HISTEST_OBS_SIMD_KERNELS(HISTEST_OBS_SIMD_TALLY_ENTRY, "<variant>").
/// The kernel order here MUST match simd::KernelIndex.
#define HISTEST_OBS_SIMD_VARIANTS(V) \
  V("scalar") V("avx2") V("avx512") V("neon")

#define HISTEST_OBS_SIMD_KERNELS(K, variant)                                   \
  K(variant, "l1_distance") K(variant, "l2_distance_squared")                  \
  K(variant, "sum") K(variant, "sum_squares") K(variant, "hellinger")          \
  K(variant, "chi_square") K(variant, "z_accumulate")                          \
  K(variant, "alias_resolve") K(variant, "fused_expand_l1")                    \
  K(variant, "fused_expand_l2") K(variant, "fused_counts_z")                   \
  K(variant, "fused_counts_chi_square")

#define HISTEST_OBS_SIMD_TALLY_NAME(variant, kernel) \
  "histest.simd." variant "." kernel ".calls"

/// KernelTable::tally initializer entry (trailing comma for list expansion).
#define HISTEST_OBS_SIMD_TALLY_ENTRY(variant, kernel) \
  HISTEST_OBS_SIMD_TALLY_NAME(variant, kernel),
// clang-format on

namespace histest {
namespace obs {
namespace names {

#define HISTEST_OBS_DEFINE_NAME(ident, literal, kind, desc) \
  inline constexpr const char* ident = literal;
HISTEST_OBS_NAMES(HISTEST_OBS_DEFINE_NAME)
#undef HISTEST_OBS_DEFINE_NAME

}  // namespace names
}  // namespace obs
}  // namespace histest

#endif  // HISTEST_OBS_NAMES_H_
