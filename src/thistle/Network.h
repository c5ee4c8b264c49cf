//===- thistle/Network.h - Network-level co-design driver -------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network-level driver behind the paper's headline results (Figs.
/// 5/6/8, section V): optimize every conv layer of a pipeline at once,
/// and in CoDesign mode pick the single architecture minimizing the
/// summed Eq. 5 objective across layers (the equal-area network
/// comparison). Identical layer shapes — ResNet-style repeated blocks —
/// are deduplicated up front and solved once; the (layer, perm-pair)
/// task grid fans out on one ThreadPool with the same deterministic
/// (objective, layer, QI, SI) reduction as the single-layer sweep, so
/// results are bit-identical at every thread count. An optional
/// GpSolutionCache (thistle/GpCache.h) carries solutions across runs:
/// hits replay without solving.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_NETWORK_H
#define THISTLE_THISTLE_NETWORK_H

#include "ir/Builders.h"
#include "support/RunReport.h"
#include "thistle/GpCache.h"
#include "thistle/Optimizer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace thistle {

/// Network-driver configuration.
struct NetworkOptions {
  /// Per-layer sweep configuration (mode, objective, solver, rounding,
  /// threads, deadline). The deadline is resolved once and applies to
  /// the whole network run, not per layer.
  ThistleOptions Layer;
  /// Optional shared solution cache; nullptr solves everything cold.
  /// The same instance may be passed to consecutive runs to reuse
  /// solutions (the repeated-block / repeated-network case).
  GpSolutionCache *Cache = nullptr;
  /// Optional external worker pool (the serving path shares one pool
  /// across requests); when set, Layer.Threads is ignored. Results are
  /// bit-identical at any pool size either way.
  ThreadPool *Pool = nullptr;
  /// In CoDesign mode, run the second phase that selects one
  /// architecture for the whole network (the paper's comparison). When
  /// false each layer keeps its own co-designed architecture.
  bool SelectNetworkArch = true;
  /// Deterministic 1-of-N partition of the pair-task grid for
  /// distributed sweeps (docs/PERSISTENCE.md): this process solves only
  /// tasks whose global index is congruent to ShardIndex mod ShardCount
  /// and skips the rest before any cache lookup. The partition depends
  /// only on the task grid, never on timing, so shard results recombine
  /// (via a shared cache directory) bit-identically to a 1-process run.
  std::size_t ShardIndex = 0; ///< 0-based; must be < ShardCount.
  std::size_t ShardCount = 1; ///< 1 = no sharding.
};

/// One input layer's slice of the network result.
struct NetworkLayerResult {
  std::string Name;
  /// Index into the deduplicated shape list; layers with equal shapes
  /// share it (and their Result).
  std::size_t ShapeIndex = 0;
  /// Input layers sharing this shape (identical on all copies).
  std::size_t Multiplicity = 1;
  /// True when this layer reuses an earlier identical shape's sweep; its
  /// Result then carries the shared winner but an empty Report (the
  /// shape's sweep is accounted once, on the first occurrence).
  bool Deduplicated = false;
  ThistleResult Result;
};

/// Network-level aggregates over the found layers (each unique shape's
/// winner counted once per input layer using it).
struct NetworkTotals {
  double EnergyPj = 0.0;
  double Cycles = 0.0;
  /// Network EDP: total energy times total cycles (the layers run
  /// back-to-back on one accelerator).
  double EdpPjCycles = 0.0;
  double EnergyPerMacPj = 0.0;
  std::int64_t Macs = 0;
  /// Sum over layers of the per-layer objective value — the quantity
  /// the CoDesign architecture selection minimizes.
  double SummedObjective = 0.0;
};

/// Counters of one network run.
struct NetworkStats {
  std::size_t LayersTotal = 0;
  std::size_t UniqueShapes = 0;
  /// Planned pair tasks across all phases: unique shapes in phase 1
  /// plus, in CoDesign mode, candidates x unique shapes in phase 2.
  unsigned PairsPlanned = 0;
  /// Pairs that produced an iterate, all phases (= Report.Solved +
  /// Report.Degraded).
  unsigned PairsSolved = 0;
  /// Candidate architectures scored in the CoDesign selection phase.
  unsigned ArchCandidates = 0;
  /// This run's cache traffic (0 when no cache was supplied). The
  /// cache's own counters aggregate across runs instead.
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  /// Always 0: the cache has no warm-start tier. Kept because benchmark
  /// code outside the library still reads it.
  std::uint64_t CacheWarmStarts = 0;
};

/// One scored architecture candidate of the CoDesign selection phase.
struct NetworkArchCandidate {
  ArchConfig Arch;
  /// Summed per-layer objective under this architecture; meaningful
  /// when AllLayersFound.
  double SummedObjective = 0.0;
  bool AllLayersFound = false;
  std::size_t LayersFound = 0;
};

/// What optimizeNetwork returns.
struct NetworkResult {
  /// True when every input layer found a design (Totals are complete).
  bool Found = false;
  std::size_t LayersFound = 0;
  /// Non-Ok when the inputs failed validation before any sweep ran
  /// (empty layer list, bad architecture, bad options); the report is
  /// then empty ("0 tasks: nothing attempted").
  Status InputStatus;
  /// Merged per-pair accounting across every layer sweep (and, in
  /// CoDesign mode, every candidate re-sweep), in deterministic
  /// (phase, shape, task) order.
  SweepReport Report;
  std::vector<NetworkLayerResult> Layers;
  /// The network architecture: the input arch in DataflowOnly mode, the
  /// selected winner in CoDesign mode (input arch if nothing was found).
  ArchConfig Arch;
  NetworkTotals Totals;
  /// CoDesign selection phase candidates, in deterministic order (first
  /// appearance over shapes); empty in DataflowOnly mode.
  std::vector<NetworkArchCandidate> Candidates;
  NetworkStats Stats;
};

/// Optimizes every layer of \p Layers on one architecture.
///
/// DataflowOnly: \p Arch is fixed; each unique layer shape gets its own
/// best dataflow and the totals sum the per-layer winners.
///
/// CoDesign: phase 1 co-designs each unique shape under
/// \p AreaBudgetUm2; the distinct winning architectures become
/// candidates; phase 2 re-optimizes every unique shape's dataflow under
/// each candidate, and the candidate with the smallest summed objective
/// across all input layers is selected (ties break on candidate order).
NetworkResult optimizeNetwork(const std::vector<ConvLayer> &Layers,
                              const ArchConfig &Arch,
                              const TechParams &Tech,
                              const NetworkOptions &Options,
                              double AreaBudgetUm2 = 0.0);

/// Fills the run report's sweep, result block and network section from
/// \p R; \p CacheEnabled says whether a GP solution cache served the run.
void fillNetworkReport(const NetworkResult &R, bool CacheEnabled,
                       RunReport &RR);

} // namespace thistle

#endif // THISTLE_THISTLE_NETWORK_H
