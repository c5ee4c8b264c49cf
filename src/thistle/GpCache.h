//===- thistle/GpCache.h - GP solution cache for network sweeps -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe cache of perm-class pair-task outcomes, shared across
/// the layer sweeps of a network-level run (repeated ResNet-style blocks
/// make many solves redundant). Entries are keyed on the full
/// canonicalized task identity (layer shape, architecture, technology,
/// perm-pair, mode/objective/options). A hit replays the recorded
/// outcome — report record, stats deltas, rounded design — without
/// building or solving the GP, so a cached sweep is bit-identical to a
/// cold one, and an answer never depends on which queries came before.
///
/// The cache is LRU-bounded (setCapacity; unbounded by default) and
/// durable (docs/PERSISTENCE.md): saveSnapshotFile writes every entry
/// atomically, attachJournal appends every *new* insert at record
/// granularity so entries survive SIGKILL, and loadFile replays either
/// artifact back into the cache.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_GPCACHE_H
#define THISTLE_THISTLE_GPCACHE_H

#include "support/Persist.h"
#include "support/SweepReport.h"
#include "thistle/Rounding.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace thistle {

struct ThistleOptions;

/// The replayable outcome of one pair task. Everything the task wrote
/// into its shard accumulator is recorded, so a hit reproduces the
/// miss path bit-for-bit without touching the solver.
struct GpCacheEntry {
  TaskOutcome Outcome = TaskOutcome::Failed;
  unsigned Attempts = 0;
  std::string Detail;          ///< Incident detail (empty when Solved).
  unsigned NewtonIterations = 0;
  bool GpInfeasible = false;   ///< The task bumped Stats.GpInfeasible.
  /// Rounded design (Design.Found=false when rounding found nothing or
  /// the solve yielded no feasible iterate).
  RoundedDesign Design;
  double Obj = 0.0;            ///< objectiveValue(Design.Eval, ...).
  double ModelObjective = 0.0; ///< Relaxed GP objective (pre-rounding).
};

/// Builds the canonical cache key of one (problem, options, arch, pair)
/// task. Layer names are deliberately excluded so identically shaped
/// layers of different networks share entries.
std::string gpCacheKey(const Problem &Prob, const ThistleOptions &Options,
                       const ArchConfig &Arch, const TechParams &Tech,
                       double AreaBudgetUm2,
                       const std::vector<unsigned> &TiledIters,
                       const std::vector<unsigned> &PePerm,
                       const std::vector<unsigned> &DramPerm);

/// What loading durable cache state recovered (and what it could not).
struct GpCachePersistStats {
  unsigned FilesLoaded = 0;        ///< Artifacts that contributed entries.
  std::uint64_t EntriesLoaded = 0; ///< Entries restored to the cache.
  std::uint64_t RecordsRead = 0;   ///< Journal records decoded.
  /// Artifacts detected damaged (bad magic, truncation, CRC mismatch,
  /// undecodable payload). Each adds a line to Problems; the load
  /// degrades to whatever intact state remained — never a crash.
  unsigned DataLoss = 0;
  std::vector<std::string> Problems;
};

/// Thread-safe GP solution cache. One instance may be shared across
/// sequential optimizeNetwork calls to carry results between runs;
/// concurrent sweeps sharing one instance are serialized on an internal
/// mutex.
class GpSolutionCache {
public:
  /// Counts a hit or a miss. On a hit copies the entry.
  bool lookup(const std::string &Key, GpCacheEntry &Out);

  /// Inserts the finished task. New entries are appended to the
  /// attached journal; when the cache is at capacity, the
  /// least-recently-used entry is evicted first.
  void insert(const std::string &Key, GpCacheEntry Entry);

  /// Bounds the cache to \p MaxEntries (0 = unbounded, the default),
  /// evicting from the LRU end immediately if over. Eviction never
  /// changes results — an evicted task re-solves, and solve and replay
  /// are bit-identical.
  void setCapacity(std::size_t MaxEntries);
  std::size_t capacity() const;

  /// Writes the whole cache as one atomic snapshot (LRU-first, so a
  /// sequential reload reconstructs the recency order).
  Status saveSnapshotFile(const std::string &Path) const;

  /// Restores entries from a snapshot (*.snap) or journal (any other
  /// suffix) into the cache. Existing keys win over loaded ones, and
  /// loaded entries are not re-journaled. Damage is accumulated into
  /// \p Stats, never thrown: a missing file is skipped silently, a
  /// damaged one contributes its intact prefix, and a file of another
  /// kind (including the older "gpcache" encoding) is rejected whole.
  void loadFile(const std::string &Path, GpCachePersistStats &Stats);

  /// Attaches an append-only journal: every subsequent *new* insert is
  /// flushed to \p Path at record granularity (crash durability between
  /// snapshots). Append failures are counted, reported through
  /// journalAppendFailures(), and never fail the insert.
  Status attachJournal(const std::string &Path);
  void detachJournal();

  /// Folds the journal into one snapshot: detaches the journal, writes
  /// the cache to \p SnapPath, and removes \p JournalPath only if the
  /// write succeeded — on failure the journal keeps every entry for the
  /// next load. Returns the snapshot write's status.
  Status compact(const std::string &SnapPath, const std::string &JournalPath);
  std::uint64_t journalAppendFailures() const {
    return JournalFailures.load();
  }

  std::uint64_t hits() const { return Hits.load(); }
  std::uint64_t misses() const { return Misses.load(); }
  std::uint64_t evictions() const { return Evictions.load(); }
  std::size_t size() const;
  void clear();

private:
  struct Slot {
    GpCacheEntry Entry;
    /// Position in Recency (front = most recently used).
    std::list<std::string>::iterator Where;
  };

  /// Insert with LRU bookkeeping; Mutex must be held. Returns true
  /// when \p Key was new (existing keys win).
  bool insertLocked(const std::string &Key, GpCacheEntry Entry);
  /// Drops least-recently-used entries down to capacity; Mutex must be
  /// held.
  void evictLocked();

  mutable std::mutex Mutex;
  std::unordered_map<std::string, Slot> Entries;
  std::list<std::string> Recency; ///< Keys, most recent first.
  std::size_t MaxEntries = 0;     ///< 0 = unbounded.
  persist::JournalWriter Journal;
  std::atomic<std::uint64_t> Hits{0}, Misses{0};
  std::atomic<std::uint64_t> Evictions{0}, JournalFailures{0};
};

} // namespace thistle

#endif // THISTLE_THISTLE_GPCACHE_H
