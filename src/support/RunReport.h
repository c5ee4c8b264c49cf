//===- support/RunReport.h - Schema-versioned JSON run report ---*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable record of one optimization run: what was asked
/// (workload, mode, objective, hierarchy, threads), what came out
/// (design metrics, exit code), the per-task SweepReport, and the
/// telemetry snapshot (counters, statistics, trace spans). Serialized
/// as schema-versioned JSON by `thistle-opt --trace-json <file>`;
/// `tools/check_run_report.py` validates an emitted report against the
/// schema pinned in docs/OBSERVABILITY.md.
///
/// The emitter is always compiled (it is cold path); only the
/// collection hooks behind it compile out under THISTLE_TELEMETRY=OFF,
/// in which case the metrics/trace sections are empty.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_RUNREPORT_H
#define THISTLE_SUPPORT_RUNREPORT_H

#include "support/SweepReport.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace thistle {

/// Current schema identifier, bumped on any incompatible layout change.
inline constexpr const char *RunReportSchema = "thistle-run-report/1";

/// One per-layer row of the network section.
struct RunReportNetworkLayer {
  std::string Name;
  std::uint64_t ShapeIndex = 0;
  std::uint64_t Multiplicity = 1;
  bool Deduplicated = false;
  bool Found = false;
  double EnergyPj = 0.0;
  double Cycles = 0.0;
};

/// The `--network` run section: dedup/cache accounting, network totals
/// and one row per input layer. Plain data so the support layer stays
/// independent of the optimizer; thistle-opt copies the NetworkResult
/// fields in.
struct RunReportNetwork {
  bool Present = false; ///< Serialized as `"network": false` when unset.
  std::uint64_t LayersTotal = 0;
  std::uint64_t LayersFound = 0;
  std::uint64_t UniqueShapes = 0;
  bool CacheEnabled = false;
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  unsigned ArchCandidates = 0;
  double SummedObjective = 0.0;
  double TotalEnergyPj = 0.0;
  double TotalCycles = 0.0;
  double TotalEdpPjCycles = 0.0;
  double EnergyPerMacPj = 0.0;
  std::uint64_t Macs = 0;
  std::vector<RunReportNetworkLayer> Layers;
};

/// The `--evaluator` section: which cost-model backend scored the run
/// and, for cross-checked runs, the accumulated divergence statistics.
/// Plain data so the support layer stays independent of nestmodel;
/// thistle-opt copies CrossCheckStats in.
struct RunReportEvaluatorSample {
  std::string Counter; ///< E.g. "words[b1][Out]".
  std::int64_t Primary = 0;
  std::int64_t Reference = 0;
};

struct RunReportEvaluator {
  std::string Backend = "nest"; ///< "nest" | "maestro" | "both" | custom.
  bool CrossCheck = false;      ///< True for --evaluator both.
  /// Cross-check aggregates; all zero when !CrossCheck.
  std::uint64_t Evals = 0;
  std::uint64_t DivergentEvals = 0;
  std::uint64_t CountersCompared = 0;
  std::uint64_t CounterMismatches = 0;
  double MaxAbsDelta = 0.0;
  double MaxRelDelta = 0.0;
  std::vector<RunReportEvaluatorSample> Samples;
};

/// The `persistence` section: what durable state the run loaded, what
/// it wrote, and every damage diagnostic (docs/PERSISTENCE.md). Present
/// only when a cache directory was configured.
struct RunReportPersistence {
  bool Present = false; ///< Serialized as `"persistence": false` unset.
  std::string Directory;
  std::uint64_t Capacity = 0; ///< In-memory LRU bound; 0 = unbounded.
  std::uint64_t LoadedFiles = 0;
  std::uint64_t LoadedEntries = 0;
  std::uint64_t AppendFailures = 0; ///< Journal appends that failed.
  std::uint64_t Evictions = 0;
  /// Artifacts detected torn/truncated/corrupt on load. The run then
  /// degraded to a cold start for the damaged portion; Problems lists
  /// one diagnostic per artifact.
  std::uint64_t DataLossDetected = 0;
  std::vector<std::string> Problems;
  bool SnapshotWritten = false; ///< Clean-exit compaction succeeded.
};

/// The `shards` section: this run's slice of a distributed sweep.
/// Present only under --shard or --merge-shards.
struct RunReportShards {
  bool Present = false; ///< Serialized as `"shards": false` when unset.
  std::uint64_t Index = 1; ///< 1-based, as on the command line.
  std::uint64_t Count = 1;
  bool Merge = false; ///< True for the --merge-shards recombination run.
};

/// The `serve` section: lifetime totals of one thistle-serve process
/// (docs/SERVING.md). Present only in reports written by the daemon at
/// shutdown. The cache counters are process-level deltas; the
/// stats-vs-report consistency test checks they equal the sum of the
/// per-request `server.cache` counters across all responses.
struct RunReportServe {
  bool Present = false; ///< Serialized as `"serve": false` when unset.
  std::uint64_t Requests = 0;     ///< Lines received (incl. admin cmds).
  std::uint64_t Queries = 0;      ///< Solve queries admitted.
  std::uint64_t Errors = 0;       ///< Error responses (bad JSON/request).
  std::uint64_t Deduplicated = 0; ///< Queries joined onto an in-flight solve.
  std::uint64_t Solves = 0;       ///< Solver-thread jobs actually run.
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  std::uint64_t CacheEvictions = 0;
  std::uint64_t Compactions = 0; ///< Journal→snapshot compactions.
};

/// One run of the optimizer, ready for JSON serialization.
struct RunReport {
  std::string Tool = "thistle-opt";
  std::string Workload;   ///< Layer or pipeline name.
  std::string Mode;       ///< "dataflow" | "codesign".
  std::string Objective;  ///< "energy" | "delay" | "edp".
  std::string Hierarchy;  ///< "classic3" | "spad4" | file path.
  unsigned Threads = 0;   ///< 0 = one per hardware thread.
  double WallSeconds = 0.0;
  int ExitCode = 0;

  /// Result block; meaningful when Found.
  bool Found = false;
  double EnergyPj = 0.0;
  double EnergyPerMacPj = 0.0;
  double Cycles = 0.0;
  double MacIpc = 0.0;
  double EdpPjCycles = 0.0;

  /// Fills the result block from a found design's evaluation (an
  /// EvalResult or MultiEvalResult).
  template <class Eval> void setResult(const Eval &E) {
    Found = true;
    EnergyPj = E.EnergyPj;
    EnergyPerMacPj = E.EnergyPerMacPj;
    Cycles = E.Cycles;
    MacIpc = E.MacIpc;
    EdpPjCycles = E.EdpPjCycles;
  }

  /// Per-task sweep accounting (pair or combo sweep); HasSweep is false
  /// for runs that never sweep (e.g. usage errors).
  bool HasSweep = false;
  SweepReport Sweep;
  std::string SweepTaskNoun = "task";

  /// Which cost-model backend scored the run (and its cross-check
  /// statistics under --evaluator both).
  RunReportEvaluator Evaluator;

  /// The `--network` section; Present is false for single-layer runs.
  RunReportNetwork Network;

  /// Durable-state accounting; Present only with a cache directory.
  RunReportPersistence Persistence;

  /// Distributed-sweep slice; Present only when sharding or merging.
  RunReportShards Shards;

  /// Daemon lifetime totals; Present only for thistle-serve reports.
  RunReportServe Serve;

  /// Counters, statistics and spans collected during the run.
  telemetry::Snapshot Telemetry;

  /// Serializes the report as schema-versioned JSON (UTF-8, trailing
  /// newline). Field order is fixed, so equal runs produce equal bytes
  /// up to the timing fields.
  std::string toJson() const;

  /// The deterministic projection carried inside thistle-serve/1
  /// responses: compact (single line, no whitespace, no trailing
  /// newline) and restricted to the fields that are a pure function of
  /// the query — schema/tool/workload/mode/objective/hierarchy/threads/
  /// exit_code, result, evaluator, sweep, and network minus its cache
  /// traffic counters. Timing (wall_seconds), metrics, trace,
  /// persistence, shards and serve are excluded, so equal queries
  /// produce equal bytes whether the cache was cold, hot or reloaded.
  std::string toCanonicalJson() const;
};

/// Prints the `--profile` summary: spans aggregated by name (count,
/// total/mean/max milliseconds) followed by counters and statistics.
/// Prints an explicit note when the snapshot is empty.
void printProfile(std::ostream &OS, const telemetry::Snapshot &Snap);

} // namespace thistle

#endif // THISTLE_SUPPORT_RUNREPORT_H
