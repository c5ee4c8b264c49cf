//===- support/ThreadPool.h - Reusable worker-thread pool -------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool plus the `parallelFor` / `parallelReduce`
/// helpers the co-design engine fans out on. The design goal is *determinism
/// under any worker count*: work is partitioned into contiguous shards,
/// per-shard state never crosses a shard boundary, and reductions merge the
/// shard accumulators in shard order on the calling thread. Any associative
/// combine therefore yields a bit-identical result whether the pool has 1
/// or 64 workers — callers (the perm-class pair sweep, the batched mapper)
/// rely on this to keep search results independent of `--threads`.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_THREADPOOL_H
#define THISTLE_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace thistle {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
public:
  /// Spawns \p NumThreads workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned NumThreads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numWorkers() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Enqueues \p Task for execution on some worker.
  void submit(std::function<void()> Task);

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned defaultWorkerCount();

  /// The largest worker count the tools accept for --threads.
  static constexpr unsigned MaxWorkers = 1024;

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable Ready;
  bool Stopping = false;
};

namespace detail {

/// Bounds of shard \p Shard when [0, N) is split into \p NumShards
/// contiguous, near-equal pieces.
inline std::pair<std::size_t, std::size_t>
shardRange(std::size_t N, unsigned NumShards, unsigned Shard) {
  return {N * Shard / NumShards, N * (Shard + 1) / NumShards};
}

/// Number of shards [0, N) is split into: one per worker, but never more
/// than N and never so many that a shard would hold fewer than \p Grain
/// items. Grain <= 1 disables the floor (pure per-worker sharding).
inline unsigned numShardsFor(std::size_t N, unsigned Workers,
                             std::size_t Grain) {
  if (N == 0)
    return 0;
  std::size_t Shards = std::min<std::size_t>(Workers, N);
  if (Grain > 1)
    Shards = std::min(Shards, std::max<std::size_t>(N / Grain, 1));
  return static_cast<unsigned>(std::max<std::size_t>(Shards, 1));
}

} // namespace detail

/// Runs `Body(Index, Shard)` for every Index in [0, N), partitioned into
/// contiguous shards (one per worker, capped so each shard holds at least
/// \p Grain items), and blocks until all shards finish. A grain above 1
/// batches small work items so per-task dispatch overhead is amortized —
/// essential when items are microseconds each. Shard identity depends
/// only on (N, worker count, grain), so per-shard scratch indexed by the
/// Shard argument is race-free; callers that need results independent of
/// the shard count must keep their combine logic associative exactly as
/// for worker-count independence. If shards throw, the exception of the
/// lowest-numbered failing shard is rethrown once every shard has
/// finished, so failure is as deterministic as success.
template <typename BodyFn>
void parallelFor(ThreadPool &Pool, std::size_t N, BodyFn &&Body,
                 std::size_t Grain = 1) {
  if (N == 0)
    return;
  const unsigned NumShards =
      detail::numShardsFor(N, Pool.numWorkers(), Grain);
  if (NumShards <= 1) {
    for (std::size_t I = 0; I < N; ++I)
      Body(I, 0u);
    return;
  }

  struct Sync {
    std::mutex M;
    std::condition_variable Done;
    unsigned Remaining;
    std::vector<std::exception_ptr> Errors;
  } S;
  S.Remaining = NumShards;
  S.Errors.resize(NumShards);

  for (unsigned Shard = 0; Shard < NumShards; ++Shard) {
    Pool.submit([&S, &Body, N, NumShards, Shard] {
      auto [Begin, End] = detail::shardRange(N, NumShards, Shard);
      try {
        for (std::size_t I = Begin; I < End; ++I)
          Body(I, Shard);
      } catch (...) {
        S.Errors[Shard] = std::current_exception();
      }
      std::lock_guard<std::mutex> Lock(S.M);
      if (--S.Remaining == 0)
        S.Done.notify_all();
    });
  }

  std::unique_lock<std::mutex> Lock(S.M);
  S.Done.wait(Lock, [&S] { return S.Remaining == 0; });
  for (std::exception_ptr &E : S.Errors)
    if (E)
      std::rethrow_exception(E);
}

/// Folds [0, N) into per-shard copies of \p Init via `Fold(Local, Index)`
/// and merges them in ascending shard order with `Join(Acc, std::move(
/// Local))` on the calling thread. Shard boundaries vary with the worker
/// count (and with \p Grain, see parallelFor), so \p Join must be
/// associative for the result to be independent of them; sums, minima,
/// and tie-broken arg-minima all qualify.
template <typename AccT, typename FoldFn, typename JoinFn>
AccT parallelReduce(ThreadPool &Pool, std::size_t N, AccT Init,
                    FoldFn &&Fold, JoinFn &&Join, std::size_t Grain = 1) {
  if (N == 0)
    return Init;
  const unsigned NumShards =
      detail::numShardsFor(N, Pool.numWorkers(), Grain);
  std::vector<AccT> Locals(NumShards, Init);
  parallelFor(
      Pool, N,
      [&Locals, &Fold](std::size_t I, unsigned Shard) {
        Fold(Locals[Shard], I);
      },
      Grain);
  AccT Result = std::move(Locals[0]);
  for (unsigned Shard = 1; Shard < NumShards; ++Shard)
    Join(Result, std::move(Locals[Shard]));
  return Result;
}

} // namespace thistle

#endif // THISTLE_SUPPORT_THREADPOOL_H
