//===- bench/bench_parallel_speedup.cpp - Threaded engine throughput ------===//
//
// Measures the wall-clock throughput of the two parallelized hot loops —
// the perm-class pair sweep (pairs/s) and the mapper search (trials/s) —
// at 1 thread vs. N threads on a Table-2 workload, and writes the numbers
// to BENCH_parallel.json so the perf trajectory is tracked across PRs.
// Both engines are bit-deterministic under the thread count, so the
// speedup is pure wall clock: the measured runs are checked to agree.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace thistle;
using namespace thistle::bench;

namespace {

struct Measurement {
  double Seconds1 = 0.0;
  double SecondsN = 0.0;
  double Units = 0.0; ///< Pairs solved / trials run (same at both counts).
};

/// Min-of-N repetitions per timing (see bench::minSecondsOfN).
constexpr unsigned Reps = 3;

Measurement measureSweep(const Problem &P, unsigned Threads) {
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  ThistleOptions Opts =
      thistleOptions(DesignMode::DataflowOnly, SearchObjective::Energy);

  Measurement M;
  ThistleResult Seq, Par;
  Opts.Threads = 1;
  M.Seconds1 =
      minSecondsOfN(Reps, [&] { Seq = optimizeLayer(P, Arch, Tech, Opts); });

  Opts.Threads = Threads;
  M.SecondsN =
      minSecondsOfN(Reps, [&] { Par = optimizeLayer(P, Arch, Tech, Opts); });

  // Planned pairs, not solved: throughput counts GP attempts fanned out,
  // regardless of per-pair outcome.
  M.Units = Seq.Stats.PairsPlanned;
  if (Seq.Eval.EnergyPj != Par.Eval.EnergyPj)
    std::printf("WARNING: sweep result differs across thread counts!\n");
  return M;
}

Measurement measureMapper(const Problem &P, unsigned Threads) {
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MapperOptions Opts = mapperOptions(SearchObjective::Energy);
  Opts.MaxTrials = 8000;
  Opts.VictoryCondition = 8000; // Let the budget dominate the timing.

  Measurement M;
  MultiMapperResult Seq, Par;
  Opts.Threads = 1;
  M.Seconds1 =
      minSecondsOfN(Reps, [&] { Seq = searchMultiMappings(P, Machine, Opts); });

  Opts.Threads = Threads;
  M.SecondsN =
      minSecondsOfN(Reps, [&] { Par = searchMultiMappings(P, Machine, Opts); });

  M.Units = Seq.Trials;
  if (Seq.Trials != Par.Trials ||
      Seq.BestEval.EnergyPj != Par.BestEval.EnergyPj)
    std::printf("WARNING: mapper result differs across thread counts!\n");
  return M;
}

void printRow(const char *Name, const Measurement &M, unsigned Threads) {
  std::printf("%-10s %10.0f units  %8.2fs @1t (%8.1f/s)  %8.2fs @%ut "
              "(%8.1f/s)  speedup %.2fx\n",
              Name, M.Units, M.Seconds1, M.Units / M.Seconds1, M.SecondsN,
              Threads, M.Units / M.SecondsN, M.Seconds1 / M.SecondsN);
}

void writeJson(const char *Path, const std::string &Workload,
               unsigned ThreadsRequested, unsigned Threads,
               const Measurement &Sweep, const Measurement &Mapper) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  std::fprintf(
      F,
      "{\n"
      "  \"bench\": \"parallel_speedup\",\n"
      "  \"workload\": \"%s\",\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"threads_requested\": %u,\n"
      "  \"threads\": %u,\n"
      "  \"oversubscribed\": %s,\n"
      "  \"timing\": \"min_of_%u\",\n"
      "  \"sweep\": {\n"
      "    \"pairs\": %.0f,\n"
      "    \"seconds_1t\": %.4f,\n"
      "    \"seconds_nt\": %.4f,\n"
      "    \"pairs_per_s_1t\": %.2f,\n"
      "    \"pairs_per_s_nt\": %.2f,\n"
      "    \"speedup\": %.3f\n"
      "  },\n"
      "  \"mapper\": {\n"
      "    \"trials\": %.0f,\n"
      "    \"seconds_1t\": %.4f,\n"
      "    \"seconds_nt\": %.4f,\n"
      "    \"trials_per_s_1t\": %.2f,\n"
      "    \"trials_per_s_nt\": %.2f,\n"
      "    \"speedup\": %.3f\n"
      "  }\n"
      "}\n",
      Workload.c_str(), ThreadPool::defaultWorkerCount(), ThreadsRequested,
      Threads, oversubscribed(ThreadsRequested) ? "true" : "false", Reps,
      Sweep.Units, Sweep.Seconds1, Sweep.SecondsN,
      Sweep.Units / Sweep.Seconds1, Sweep.Units / Sweep.SecondsN,
      Sweep.Seconds1 / Sweep.SecondsN, Mapper.Units, Mapper.Seconds1,
      Mapper.SecondsN, Mapper.Units / Mapper.Seconds1,
      Mapper.Units / Mapper.SecondsN, Mapper.Seconds1 / Mapper.SecondsN);
  std::fclose(F);
}

} // namespace

int main() {
  printHeader("parallel engine throughput",
              "Wall-clock speedup of the perm-class pair sweep and the "
              "mapper search\nat 1 vs N worker threads on a Table-2 "
              "workload. Results are identical at\nany thread count; on "
              "single-core hosts the speedup degenerates to ~1x.");

  // A mid-network ResNet-18 stage: large enough that each GP solve does
  // real work, small enough that the 1-thread baseline stays in seconds.
  ConvLayer L = resnet18Layers()[4];
  Problem P = makeConvProblem(L);
  // Scaling is measured at min(request, hardware) workers: timing more
  // software threads than hardware threads measures the scheduler, not
  // the engines. The request and the clamp land in the JSON.
  const unsigned ThreadsRequested =
      std::max(4u, ThreadPool::defaultWorkerCount());
  const unsigned Threads = clampThreads(ThreadsRequested);
  if (oversubscribed(ThreadsRequested))
    std::printf("note: %u threads requested but only %u hardware threads; "
                "timing the clamped count\n\n",
                ThreadsRequested, ThreadPool::defaultWorkerCount());

  Measurement Sweep = measureSweep(P, Threads);
  Measurement Mapper = measureMapper(P, Threads);
  printRow("sweep", Sweep, Threads);
  printRow("mapper", Mapper, Threads);

  writeJson("BENCH_parallel.json", L.Name, ThreadsRequested, Threads, Sweep,
            Mapper);
  std::printf("\nwrote BENCH_parallel.json\n");
  return 0;
}
