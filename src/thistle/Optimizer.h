//===- thistle/Optimizer.h - Thistle design-space optimizer -----*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The outer loop of Thistle (paper Fig. 2): enumerate pruned tile-loop
/// permutation classes for the per-PE and DRAM temporal levels, generate
/// one constrained geometric program per class pair, solve it, round the
/// real solution to integer candidates, evaluate every candidate with the
/// nestmodel, and return the best design found. Supports the paper's two
/// modes — dataflow optimization for a fixed architecture (Eq. 3, used in
/// Figs. 4 and 7) and architecture-dataflow co-design under an area
/// budget (Eq. 5, used in Figs. 5, 6 and 8) — for either the energy or
/// the delay objective.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_OPTIMIZER_H
#define THISTLE_THISTLE_OPTIMIZER_H

#include "support/Status.h"
#include "support/SweepReport.h"
#include "thistle/GpBuilder.h"
#include "thistle/Rounding.h"

#include <chrono>
#include <string>
#include <vector>

namespace thistle {

/// Input bounds shared by thistle-opt's flags and thistle-serve/1 queries.
constexpr std::int64_t MaxDeadlineMs = 2147483647; ///< About 24.8 days.
constexpr double MaxAreaUm2 = 1e11; ///< More than a whole 300 mm wafer.

/// Optimizer configuration.
struct ThistleOptions {
  SearchObjective Objective = SearchObjective::Energy;
  DesignMode Mode = DesignMode::DataflowOnly;
  RoundingOptions Rounding;
  GpSolverOptions Solver;
  /// Iterator names never tiled (the paper's stencil dims r and s).
  std::vector<std::string> UntiledIterNames = {"r", "s"};
  /// Allow untiled iterators to be spatially unrolled across the PE grid
  /// (see GpBuildSpec::SpatialUntiled).
  bool SpatialUntiled = true;
  /// Cap on permutation-class pairs to solve (0 = all).
  unsigned MaxPermClassPairs = 0;
  /// Worker threads for the pair sweep (0 = one per hardware thread).
  /// The result is bit-identical at every thread count — the sweep plan
  /// is fixed before fan-out and the winner is reduced with a total
  /// (objective, pair-index) order — so this only affects wall clock.
  unsigned Threads = 0;
  /// Wall-clock budget for the pair sweep (0 = unlimited). Checked
  /// before each pair solve: pairs starting after the deadline are
  /// skipped and counted in the SweepReport, and the sweep returns the
  /// best of the completed pairs (graceful degradation). Which pairs
  /// complete under a live deadline is wall-clock dependent; a sweep
  /// that never hits the deadline is bit-identical to an unbounded one.
  std::chrono::milliseconds Deadline{0};
  /// Absolute form of the deadline (steady clock); takes precedence
  /// over Deadline when set. Lets tests pin an already-expired or
  /// far-future instant deterministically.
  std::chrono::steady_clock::time_point DeadlineAt{};
};

class GpSolutionCache;
class ThreadPool;

/// Search statistics (exposed for the ablation benchmarks).
struct ThistleStats {
  unsigned PermClassesPerLevel = 0;
  unsigned RawPermsPerLevel = 0;
  unsigned PairsTotal = 0;
  unsigned PairsSkippedBySymmetry = 0;
  /// Tasks in the fixed sweep plan (after symmetry pruning and the pair
  /// cap): what the sweep *attempts*. This is the quantity the ablation
  /// benchmarks normalize by.
  unsigned PairsPlanned = 0;
  /// Pairs that actually produced an iterate: Report.Solved +
  /// Report.Degraded. Historically this was assigned the planned count
  /// before the sweep ran, over-reporting whenever pairs failed, were
  /// infeasible or were skipped by a deadline.
  unsigned PairsSolved = 0;
  unsigned GpInfeasible = 0;
  unsigned NewtonIterations = 0;
  std::size_t CandidatesEvaluated = 0;
  /// This sweep's GP-cache traffic (all zero without a shared cache).
  /// Per-run deltas, like NetworkStats' counters — the cache's own
  /// counters aggregate across runs instead.
  std::uint64_t CacheHits = 0, CacheMisses = 0;
};

/// The best design found for one layer.
struct ThistleResult {
  bool Found = false;
  /// Non-Ok when the inputs failed validation before the sweep ran
  /// (bad architecture, non-positive area budget, malformed options);
  /// Found is false and the report is empty in that case.
  Status InputStatus;
  /// Per-pair solved/retried/degraded/failed/skipped accounting. When
  /// pairs fail or are skipped, the sweep still returns the optimum
  /// over the remaining pairs and names the losses here.
  SweepReport Report;
  ArchConfig Arch; ///< Input arch (dataflow mode) or co-designed.
  Mapping Map;
  EvalResult Eval;
  /// The GP's own objective estimate at the best pair (pre-rounding).
  double ModelObjective = 0.0;
  /// Permutations of the winning class pair (outer-to-inner, tiled only).
  std::vector<unsigned> BestPePerm, BestDramPerm;
  ThistleStats Stats;
};

/// Shared long-lived resources a layer run may borrow instead of
/// creating its own (the serving path, docs/SERVING.md). Both are
/// optional and null by default, which reproduces the self-contained
/// behavior exactly: no cache, a private pool sized by
/// ThistleOptions::Threads.
struct LayerRunContext {
  /// Shared GP solution cache; hits replay bit-identically
  /// (thistle/GpCache.h).
  GpSolutionCache *Cache = nullptr;
  /// External worker pool for the pair sweep; when set,
  /// ThistleOptions::Threads is ignored. Results are bit-identical at
  /// any pool size either way.
  ThreadPool *Pool = nullptr;
};

/// Runs Thistle on one layer.
///
/// In DataflowOnly mode, \p Arch is the fixed architecture. In CoDesign
/// mode, \p Arch supplies the bandwidth parameters and \p AreaBudgetUm2
/// bounds the Eq. 5 area (pass e.g. the Eyeriss area for the paper's
/// equal-area comparison).
ThistleResult optimizeLayer(const Problem &Prob, const ArchConfig &Arch,
                            const TechParams &Tech,
                            const ThistleOptions &Options,
                            double AreaBudgetUm2 = 0.0);

/// As above, borrowing the caller's cache and/or thread pool.
ThistleResult optimizeLayer(const Problem &Prob, const ArchConfig &Arch,
                            const TechParams &Tech,
                            const ThistleOptions &Options,
                            const LayerRunContext &Run,
                            double AreaBudgetUm2 = 0.0);

} // namespace thistle

#endif // THISTLE_THISTLE_OPTIMIZER_H
