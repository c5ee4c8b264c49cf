//===- tests/ThreadPoolTest.cpp - support/ThreadPool tests ----------------===//
//
// Pool lifecycle, parallelFor range coverage and exception propagation,
// and the contract of parallelReduce: results are joined in task order,
// so any join, associative or not, gives identical results at every
// worker count and grain, because the co-design engine's
// bit-reproducibility under --threads rests on exactly that; and tasks
// are claimed dynamically, so a busy worker does not hold up the rest.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

using namespace thistle;

TEST(ThreadPool, LifecycleAtVariousSizes) {
  for (unsigned N : {1u, 2u, 8u}) {
    ThreadPool Pool(N);
    EXPECT_EQ(Pool.numWorkers(), N);
  }
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numWorkers(), ThreadPool::defaultWorkerCount());
  EXPECT_GE(ThreadPool::defaultWorkerCount(), 1u);
}

TEST(ThreadPool, DrainsSubmittedTasksBeforeJoin) {
  std::atomic<int> Ran{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 100; ++I)
      Pool.submit([&Ran] { ++Ran; });
  }
  EXPECT_EQ(Ran.load(), 100);
}

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  ThreadPool Pool(4);
  std::atomic<int> Calls{0};
  parallelFor(Pool, 0, [&](std::size_t, unsigned) { ++Calls; });
  EXPECT_EQ(Calls.load(), 0);
}

TEST(ParallelFor, SingleElementRange) {
  ThreadPool Pool(4);
  std::vector<int> Hits(1, 0);
  parallelFor(Pool, 1, [&](std::size_t I, unsigned Shard) {
    EXPECT_EQ(Shard, 0u);
    ++Hits[I];
  });
  EXPECT_EQ(Hits[0], 1);
}

TEST(ParallelFor, CoversOddSizedRangeExactlyOnce) {
  for (unsigned Workers : {1u, 3u, 8u}) {
    ThreadPool Pool(Workers);
    const std::size_t N = 1001; // Odd, not a multiple of any worker count.
    std::vector<int> Hits(N, 0); // Disjoint per-index writes: race-free.
    parallelFor(Pool, N,
                [&](std::size_t I, unsigned) { ++Hits[I]; });
    for (std::size_t I = 0; I < N; ++I)
      ASSERT_EQ(Hits[I], 1) << "index " << I << ", " << Workers
                            << " workers";
  }
}

TEST(ParallelFor, ShardsArePartitionOfRange) {
  // Shard ids must be stable per index given (N, workers); indices in the
  // same shard may share unsynchronized state.
  ThreadPool Pool(4);
  const std::size_t N = 37;
  std::vector<unsigned> ShardOf(N, 0);
  parallelFor(Pool, N,
              [&](std::size_t I, unsigned Shard) { ShardOf[I] = Shard; });
  // Contiguous, ascending shard assignment.
  for (std::size_t I = 1; I < N; ++I) {
    EXPECT_GE(ShardOf[I], ShardOf[I - 1]);
    EXPECT_LE(ShardOf[I] - ShardOf[I - 1], 1u);
  }
  EXPECT_EQ(ShardOf.back(), 3u);
}

TEST(ParallelFor, PropagatesExceptionAndPoolSurvives) {
  ThreadPool Pool(4);
  EXPECT_THROW(
      parallelFor(Pool, 100,
                  [](std::size_t I, unsigned) {
                    if (I == 37)
                      throw std::runtime_error("slot 37 failed");
                  }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> Calls{0};
  parallelFor(Pool, 10, [&](std::size_t, unsigned) { ++Calls; });
  EXPECT_EQ(Calls.load(), 10);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadPool Pool(4);
  long Out = parallelReduce(
      Pool, 0, 42L, 0L, [](long &, std::size_t) { FAIL(); },
      [](long &, std::size_t, long &&) { FAIL(); });
  EXPECT_EQ(Out, 42L);
}

TEST(ParallelReduce, SumMatchesClosedFormAtAnyWorkerCount) {
  const std::size_t N = 12345;
  for (unsigned Workers : {1u, 2u, 8u}) {
    ThreadPool Pool(Workers);
    std::uint64_t Sum = parallelReduce(
        Pool, N, std::uint64_t{0}, std::uint64_t{0},
        [](std::uint64_t &Acc, std::size_t I) { Acc += I; },
        [](std::uint64_t &Acc, std::size_t, std::uint64_t &&Local) {
          Acc += Local;
        });
    EXPECT_EQ(Sum, static_cast<std::uint64_t>(N) * (N - 1) / 2);
  }
}

TEST(ParallelReduce, TieBrokenArgminIsWorkerCountInvariant) {
  // The optimizer's winner reduction: min by (value, index). Values are
  // chosen with many ties so a wrong tie-break would show up.
  const std::size_t N = 997;
  auto Value = [](std::size_t I) { return static_cast<double>(I % 7); };
  struct Best {
    bool Found = false;
    double Val = 0.0;
    std::size_t Idx = 0;
  };
  auto Fold = [&](Best &B, std::size_t I) {
    double V = Value(I);
    if (!B.Found || std::tie(V, I) < std::tie(B.Val, B.Idx)) {
      B.Found = true;
      B.Val = V;
      B.Idx = I;
    }
  };
  auto Join = [](Best &A, std::size_t, Best &&B) {
    if (B.Found &&
        (!A.Found || std::tie(B.Val, B.Idx) < std::tie(A.Val, A.Idx)))
      A = B;
  };
  Best Reference;
  for (std::size_t I = 0; I < N; ++I)
    Fold(Reference, I);
  for (unsigned Workers : {1u, 2u, 8u}) {
    ThreadPool Pool(Workers);
    Best Out = parallelReduce(Pool, N, Best{}, Best{}, Fold, Join);
    ASSERT_TRUE(Out.Found);
    EXPECT_EQ(Out.Idx, Reference.Idx) << Workers << " workers";
    EXPECT_EQ(Out.Val, Reference.Val) << Workers << " workers";
  }
}

TEST(ParallelReduce, OrderSensitiveJoinSeesTasksInIndexOrder) {
  // Appending to a string is neither commutative nor, across the comma,
  // free of order: only an in-order join of the per-task results gives
  // "0,1,...,N-1".
  const std::size_t N = 50;
  std::string Expected;
  for (std::size_t I = 0; I < N; ++I)
    Expected += (I ? "," : "") + std::to_string(I);
  for (unsigned Workers : {1u, 2u, 3u, 4u})
    for (std::size_t Grain : {std::size_t{1}, std::size_t{3}}) {
      ThreadPool Pool(Workers);
      std::string Out = parallelReduce(
          Pool, N, std::string(), std::string(),
          [](std::string &R, std::size_t I) { R = std::to_string(I); },
          [](std::string &Acc, std::size_t I, std::string &&R) {
            EXPECT_EQ(R, std::to_string(I));
            Acc += (Acc.empty() ? "" : ",") + R;
          },
          Grain);
      EXPECT_EQ(Out, Expected) << Workers << " workers, grain " << Grain;
    }
}

TEST(ParallelReduce, IdleWorkerClaimsTheNextTask) {
  // Task 0 of 4 blocks until task 1 has run. Two contiguous per-worker
  // shards would put both on one worker and task 0 would time out;
  // dynamic claiming hands task 1 to the second worker while the first
  // is still busy.
  ThreadPool Pool(2);
  std::mutex M;
  std::condition_variable Ran;
  bool Task1Ran = false; // Guarded by M.
  bool Task0SawTask1 = parallelReduce(
      Pool, 4, false, false,
      [&](bool &R, std::size_t I) {
        std::unique_lock<std::mutex> Lock(M);
        if (I == 1) {
          Task1Ran = true;
          Ran.notify_all();
          return;
        }
        R = Ran.wait_for(Lock, std::chrono::seconds(5),
                         [&] { return Task1Ran; });
      },
      [](bool &Acc, std::size_t I, bool &&R) {
        if (I == 0)
          Acc = R;
      });
  EXPECT_TRUE(Task0SawTask1);
}

TEST(ParallelReduce, RethrowsLowestFailingTaskAndPoolSurvives) {
  ThreadPool Pool(4);
  std::atomic<int> Folds{0};
  try {
    parallelReduce(
        Pool, 100, 0, 0,
        [&](int &, std::size_t I) {
          ++Folds;
          if (I == 37 || I == 80)
            throw std::runtime_error("task " + std::to_string(I));
        },
        [](int &Acc, std::size_t I, int &&) {
          EXPECT_LT(I, 37u) << "joined past the failing task";
          ++Acc;
        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "task 37");
  }
  // Every task ran before the rethrow.
  EXPECT_EQ(Folds.load(), 100);
  int Joined = parallelReduce(
      Pool, 10, 0, 0, [](int &, std::size_t) {},
      [](int &Acc, std::size_t, int &&) { ++Acc; });
  EXPECT_EQ(Joined, 10);
}
