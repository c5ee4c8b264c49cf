//===- perfbench/src/Trace.h - Benchmark-side layer spans -------*- C++ -*-===//
///
/// \file
/// The traced run's spans. The library calls into each layer (pair-sweep
/// planning and tasks, GP build, the retry-ladder and warm-start solves,
/// rounding and the default cost evaluator) are routed through link-time
/// wrappers (Trace.cpp) that, while tracing is enabled, time each call
/// and keep per-thread self-time totals: a span's self time is its
/// duration minus the time of the spans it encloses on the same thread.
/// Work counts (solves, Newton steps, evaluations, GP sizes) are kept
/// with tracing off as well, at the cost of a thread-local add per call.
/// Results are identical either way: the wrappers only read what passes
/// through them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <vector>

namespace perfbench {
namespace trace {

/// The traced layers, innermost last.
enum class Layer : unsigned { Plan, PairTask, GpBuild, Solver, Round, Evaluator };
inline constexpr unsigned NumLayers = 6;

struct LayerTotals {
  std::uint64_t Calls = 0;
  std::uint64_t InclNs = 0; ///< Sum of span durations.
  std::uint64_t SelfNs = 0; ///< Durations minus same-thread child spans.
};

/// One pair task (runPairTask) as seen by its wrapper.
struct PairSpan {
  bool Phase2 = false; ///< Global task index beyond the phase-1 grid.
  std::uint64_t StartNs = 0, EndNs = 0;
};

/// Everything recorded since the last reset(), merged over threads. The
/// counts are kept with tracing off too; Layers and Pairs only with it on.
struct Collected {
  LayerTotals Layers[NumLayers];
  std::vector<PairSpan> Pairs; ///< Sorted by start time.
  std::uint64_t PlannedTasks = 0;
  std::uint64_t GpBuilds = 0, Solves = 0, Roundings = 0, Evals = 0;
  std::uint64_t GpVars = 0, GpTerms = 0;
  std::uint64_t Converged = 0, Infeasible = 0, Useful = 0;
  std::uint64_t FallbackSolves = 0;
  std::uint64_t WarmSolves = 0; ///< Warm-start rung solves (solveGp).
  std::uint64_t NewtonSteps = 0, NewtonInfeasible = 0, NewtonConverged = 0;
  std::uint64_t InfeasibleNs = 0;
  std::uint64_t Candidates = 0;
};

/// Turns span timing on or off. Call only while no library call is
/// in flight.
void setEnabled(bool On);

/// Clears every thread's records. Call only while no library call is
/// in flight.
void reset();

/// Marks the start of one operation: pair tasks whose global index
/// reaches past the tasks planned since this call belong to phase 2.
void beginOp();

Collected collect();

/// Seconds during which at least one pair task of \p Pairs ran (the union
/// of their intervals); \p Phase 1 or 2 selects a network phase, 0 all.
double pairUnionSeconds(const std::vector<PairSpan> &Pairs, int Phase = 0);

/// Monotonic clock in nanoseconds.
std::uint64_t nowNs();

} // namespace trace
} // namespace perfbench

#endif // PERFBENCH_TRACE_H
