//===- thistle/ServeEngine.h - Long-lived co-design service -----*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request engine behind the `thistle-serve` daemon (docs/SERVING.md):
/// many concurrent connection threads feed newline-delimited
/// thistle-serve/1 JSON requests into handleLine(), which parses and
/// validates them, deduplicates identical in-flight queries onto one
/// solve, and blocks until the answer is ready. One dedicated solver
/// thread drains the FIFO admission queue over a shared durable
/// GpSolutionCache and a shared ThreadPool, which keeps each request's
/// cache counters exact while still using every core *within* a solve.
///
/// The headline invariant: the same query returns a byte-identical
/// `report` whether the cache is cold, hot, reloaded from disk, the
/// query raced with identical concurrent requests, or other queries
/// came first. It follows from the replay invariant of GpSolutionCache:
/// a hit reproduces the solve it recorded, bit for bit.
///
/// Durable state follows thistle-opt's lifecycle: start() loads
/// `gpcache.snap` + `gpcache.journal` from the cache directory and
/// attaches the journal; every SnapshotEvery solves (and at shutdown)
/// the journal is compacted into a fresh atomic snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_SERVEENGINE_H
#define THISTLE_THISTLE_SERVEENGINE_H

#include "support/RunReport.h"
#include "support/Status.h"
#include "support/ThreadPool.h"
#include "thistle/GpCache.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace thistle {

/// Daemon-level configuration of the engine.
struct ServeOptions {
  /// Durable cache directory (empty = in-memory cache only). Uses the
  /// same `gpcache.{snap,journal}` artifacts as `thistle-opt
  /// --cache-dir`, so a sweep's results serve a later daemon and vice
  /// versa.
  std::string CacheDir;
  /// In-memory LRU bound on the cache (0 = unbounded).
  std::uint64_t CacheCapacity = 0;
  /// Shared worker-pool size for the solves (0 = one per hardware
  /// thread). Results are bit-identical at any size.
  unsigned Threads = 0;
  /// Compact the checkpoint journal into a snapshot every N solves
  /// (0 = only at shutdown). Compaction never loses entries; it folds
  /// the journal into one atomic snapshot, exactly as thistle-opt's
  /// clean-exit path does.
  unsigned SnapshotEvery = 0;
};

/// Lifetime totals of one engine (the `serve` run-report section).
struct ServeStats {
  std::uint64_t Requests = 0;
  std::uint64_t Queries = 0;
  std::uint64_t Errors = 0;
  std::uint64_t Deduplicated = 0;
  std::uint64_t Solves = 0;
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  /// Always 0: the cache has no warm-start tier. Kept because benchmark
  /// code outside the library still reads it.
  std::uint64_t CacheWarmStarts = 0;
  std::uint64_t CacheEvictions = 0;
  std::uint64_t Compactions = 0;
};

/// The request engine. Thread-safe: handleLine may be called from any
/// number of connection threads concurrently.
class ServeEngine {
public:
  /// Opaque admitted-query record; defined in ServeEngine.cpp (public
  /// so the file-local request parser there can populate one).
  struct SolveJob;

  explicit ServeEngine(ServeOptions Options);
  ~ServeEngine();
  ServeEngine(const ServeEngine &) = delete;
  ServeEngine &operator=(const ServeEngine &) = delete;

  /// Loads durable state and starts the solver thread. A cache
  /// directory that cannot be created is the only hard error; damaged
  /// artifacts degrade to a cold start and are reported in the
  /// persistence section.
  Status start();

  /// Drains queued jobs, stops the solver thread and runs the final
  /// journal compaction. Idempotent; also called by the destructor.
  void shutdown();

  /// Handles one request line end to end and returns the single-line
  /// thistle-serve/1 response (no trailing newline). Malformed input
  /// yields an error response, never a crash or disconnect. Blocks
  /// until the query's solve (or the in-flight solve it joined)
  /// completes.
  std::string handleLine(const std::string &Line);

  /// True once a {"cmd":"shutdown"} request was accepted; the daemon's
  /// accept loop polls this.
  bool shutdownRequested() const { return ShutdownFlag.load(); }

  ServeStats stats() const;

  /// Fills the serve and persistence sections of the daemon's shutdown
  /// run report. Call after shutdown() so the final compaction is
  /// reflected.
  void fillReport(RunReport &RR) const;

  /// Test hook: while held, the solver thread does not pick up jobs, so
  /// a test can pile concurrent identical requests onto one in-flight
  /// job deterministically before releasing.
  void setHoldForTest(bool Hold);
  /// Test hook: jobs admitted but not yet picked up by the solver.
  std::size_t queuedForTest() const;

private:
  void solverLoop();
  void runJob(SolveJob &Job);

  ServeOptions Opts;
  GpSolutionCache Cache;
  ThreadPool Pool;
  TechParams Tech;

  bool Persist = false;
  std::string SnapPath, JournalPath;
  GpCachePersistStats LoadStats;
  bool SnapshotWritten = false;

  mutable std::mutex JobsMutex;
  std::unordered_map<std::string, std::shared_ptr<SolveJob>> InFlight;
  std::deque<std::shared_ptr<SolveJob>> Queue;
  std::condition_variable QueueCv;
  bool Stop = false;
  bool Hold = false;
  bool Started = false;
  bool Finished = false;
  std::thread Solver;

  std::atomic<bool> ShutdownFlag{false};
  std::atomic<std::uint64_t> Requests{0}, Queries{0}, Errors{0};
  std::atomic<std::uint64_t> Deduplicated{0}, Solves{0}, Compactions{0};
};

} // namespace thistle

#endif // THISTLE_THISTLE_SERVEENGINE_H
