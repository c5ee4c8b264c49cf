//===- perfbench/src/Workloads.h - The four benchmark workloads -*- C++ -*-===//
///
/// \file
/// Before each pass a workload is set up afresh, several times (timed, for
/// setup_s; the pass uses the last set-up). One pass issues every
/// operation of the workload through the public entry points, times only
/// those calls, and afterwards checks every result through the Gate.
/// NOTES.md records why each workload was chosen.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Gate.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Worker-pool size of every solve; results do not depend on it.
  unsigned Threads = 4;
  /// Directory for durable state (the serve cache); created and removed
  /// by the workload.
  std::string WorkDir = ".";
};

struct Metric {
  std::string Name;
  double Value = 0.0;
};

/// What one pass measured.
struct PassResult {
  double WallS = 0.0, CpuS = 0.0;
  std::uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  /// Modelled totals of the chosen designs, weighted by multiplicity.
  double EnergyPj = 0.0, Cycles = 0.0, Macs = 0.0;
  /// Work the pass did, as exact counts (must repeat run to run and at
  /// any pool size).
  std::vector<Metric> Work;
  /// Per-layer metrics the workload measures itself (cache, serve,
  /// network phases, multilevel sweep and mapper).
  std::vector<Metric> Layer;

  void fail(std::string Why) {
    ++Failed;
    Failures.push_back(std::move(Why));
  }
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Builds tables, problems, pools and engines. Timed as setup_s; called
  /// again after teardown().
  virtual void setup() = 0;
  /// Releases what setup() built; not timed.
  virtual void teardown() {}
  virtual PassResult run(Gate &G) = 0;
};

/// The workload named in \p C, or null when there is none by that name.
std::unique_ptr<Workload> makeWorkload(const Config &C);

/// Process user+system CPU seconds.
double cpuSeconds();
/// Monotonic wall seconds.
double wallSeconds();

/// Nearest-rank percentile of \p V (0 < Q <= 1); 0 for an empty list.
double percentile(std::vector<double> V, double Q);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
