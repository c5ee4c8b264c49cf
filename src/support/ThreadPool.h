//===- support/ThreadPool.h - Reusable worker-thread pool -------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool plus the `parallelFor` / `parallelReduce`
/// helpers the co-design engine fans out on. The design goal is *determinism
/// under any worker count*. `parallelFor` partitions the range into
/// contiguous shards whose per-shard state never crosses a shard boundary
/// (the batched mapper's slot-indexed loop). `parallelReduce` lets workers
/// claim tasks dynamically, gives every task its own result and joins the
/// results in ascending task order on the calling thread, so a reduction
/// is bit-identical whether the pool has 1 or 64 workers, whatever the
/// join — the pair, network and combo sweeps rely on this to keep search
/// results independent of `--threads`.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_THREADPOOL_H
#define THISTLE_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
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

/// Runs `Fold(Result, Index)` for every Index in [0, N), each on its own
/// copy of \p Init, and joins the results into \p Acc with
/// `Join(Acc, Index, std::move(Result))` on the calling thread in
/// ascending Index order. Workers claim the next chunk of \p Grain
/// consecutive indices from a shared counter whenever they are free, so
/// one slow task holds up only the worker running it. Chunk boundaries
/// depend on N and Grain alone, and the join order is fixed, so the result
/// equals the sequential loop's at any worker count and under any
/// schedule, whether or not Join is associative or commutative. A result
/// finished ahead of its turn waits in memory until the calling thread
/// joins and releases it. Fold runs on workers while Join runs on the
/// caller, so the two must not touch the same state. If a task or a join
/// throws, nothing after it is joined, and the exception of the lowest
/// failing index is rethrown once every task has finished.
template <typename AccT, typename ResultT, typename FoldFn, typename JoinFn>
AccT parallelReduce(ThreadPool &Pool, std::size_t N, AccT Acc,
                    const ResultT &Init, FoldFn &&Fold, JoinFn &&Join,
                    std::size_t Grain = 1) {
  const std::size_t ChunkSize = std::max<std::size_t>(Grain, 1);
  const std::size_t Chunks = (N + ChunkSize - 1) / ChunkSize;
  const unsigned Runners = static_cast<unsigned>(
      std::min<std::size_t>(Pool.numWorkers(), Chunks));
  if (Runners <= 1) {
    for (std::size_t I = 0; I < N; ++I) {
      ResultT Result = Init;
      Fold(Result, I);
      Join(Acc, I, std::move(Result));
    }
    return Acc;
  }

  struct Slot {
    bool Done = false;
    std::unique_ptr<ResultT> Result;
    std::exception_ptr Error;
  };
  struct Sync {
    std::atomic<std::size_t> NextChunk{0};
    std::mutex M;
    std::condition_variable Changed;
    std::vector<Slot> Slots; ///< Guarded by M.
    unsigned RunnersLeft;    ///< Guarded by M.
  } S;
  S.Slots.resize(N);
  S.RunnersLeft = Runners;

  for (unsigned R = 0; R < Runners; ++R) {
    Pool.submit([&S, &Init, &Fold, N, ChunkSize, Chunks] {
      for (;;) {
        const std::size_t C = S.NextChunk.fetch_add(1);
        if (C >= Chunks)
          break;
        const std::size_t End = std::min(N, (C + 1) * ChunkSize);
        for (std::size_t I = C * ChunkSize; I < End; ++I) {
          std::unique_ptr<ResultT> Result;
          std::exception_ptr Error;
          try {
            Result = std::make_unique<ResultT>(Init);
            Fold(*Result, I);
          } catch (...) {
            Result.reset();
            Error = std::current_exception();
          }
          std::lock_guard<std::mutex> Lock(S.M);
          S.Slots[I] = Slot{true, std::move(Result), std::move(Error)};
          S.Changed.notify_one();
        }
      }
      std::lock_guard<std::mutex> Lock(S.M);
      if (--S.RunnersLeft == 0)
        S.Changed.notify_one();
    });
  }

  std::exception_ptr Error;
  for (std::size_t I = 0; I < N; ++I) {
    std::unique_ptr<ResultT> Result;
    {
      std::unique_lock<std::mutex> Lock(S.M);
      S.Changed.wait(Lock, [&S, I] { return S.Slots[I].Done; });
      Result = std::move(S.Slots[I].Result);
      if (!Error)
        Error = std::move(S.Slots[I].Error);
    }
    if (Error)
      continue;
    try {
      Join(Acc, I, std::move(*Result));
    } catch (...) {
      Error = std::current_exception();
    }
  }
  std::unique_lock<std::mutex> Lock(S.M);
  S.Changed.wait(Lock, [&S] { return S.RunnersLeft == 0; });
  if (Error)
    std::rethrow_exception(Error);
  return Acc;
}

} // namespace thistle

#endif // THISTLE_SUPPORT_THREADPOOL_H
